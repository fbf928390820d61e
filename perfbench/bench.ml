(* The repository benchmark.  See README.md in this directory for the
   workloads, the metrics and which layer moves which metric.

     bench.exe --workload serve-hot|serve-mixed|compute-batch|all
               --seed N --seconds S --trace 0|1 [--commit SHA]

   run from the repository root after building bin/search_cli.exe

   prints a machine fingerprint, one line per metric, and as its last
   line one JSON object {correct, attempted, failed, metrics}.  Exits 1
   when any reply or item differs from its --jobs 1 reference. *)

module FS = Faulty_search
module P = Search_serve.Protocol
module W = Workload
module L = Loadgen

let now = Unix.gettimeofday
let jobs = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* fixed workload settings                                             *)

(* open-loop rate, requests per second: low enough that the rate times
   the worst stall seen (the generator ran up to 43 ms late on a shared
   2-CPU VM) stays under the daemon's 64-request backlog; at 2000/s,
   35 ms stalls were followed by refusals *)
let nominal_rate (_ : W.kind) = 1000.

(* closed-loop requests in flight, over all connections; at most the
   daemon's default backlog cap of 64, so that phase never sheds *)
let window = 32
let warmup_s = 1.0
let bucket_s = 0.25
let setup_reps = 15

(* the untraced daemon run alternates closed and open phases in up to
   this many rounds of at least 5 s, so a slow spell of the machine hits
   both metrics' samples alike and neither's median *)
let max_rounds = 6

(* ------------------------------------------------------------------ *)
(* results                                                             *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  workload : W.kind;
  tally : L.tally;  (** timed operations; correctness covers every phase *)
  wrong : int;  (** mismatches in any phase, warm-up and set-up included *)
  metrics : metric list;
  notes : metric list;
      (** printed, not part of the JSON metrics: they did not hold a 25%
          bound from run to run on a shared 2-CPU VM (see README.md) *)
}

let percentile sorted p =
  match FS.Stats.nearest_rank sorted ~p with
  | Some v -> v
  | None -> L.failf "percentile of an empty sample"

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = Layers.median (Array.of_list l)
let us s = s *. 1e6

(* A sample is a value with the steal ticks of the interval it was taken
   in and that interval's length.  While the hypervisor withholds the
   CPUs the figures measure the host, not the program, and on a shared
   machine that comes in spells.  So the median is taken over the samples
   whose steal rate is at most the median steal rate of all of them: the
   calmer half, or all of them when no sample saw more steal than the
   median.  Returns the median and how many samples it used. *)
let calm_median samples =
  let rate (_, st, secs) = float_of_int st /. secs in
  let limit = median (List.map rate samples) in
  let use = List.filter (fun s -> rate s <= limit) samples in
  (median (List.map (fun (v, _, _) -> v) use), List.length use)

(* The [p]th percentile of each window of [group] steal intervals of
   [per] requests each, with that window's steal *)
let windows p arrays ~per ~group ~secs =
  let w = per * group in
  List.concat_map
    (fun (a, steal) ->
      List.init (Array.length a / w) (fun i ->
          let st = ref 0 in
          for k = i * group to ((i + 1) * group) - 1 do
            st := !st + steal.(k)
          done;
          (percentile (sorted (Array.to_list (Array.sub a (i * w) w))) p, !st, secs *. float_of_int group)))
    arrays

let pct a b = if b = 0. then 0. else 100. *. a /. b

(* sample count of a metric, and how many calm samples its median used *)
let samples name all clean =
  m (name ^ ".samples") "count" (float_of_int (List.length all))
  :: [ m (name ^ ".calm") "count" (float_of_int clean) ]

let failed_pct t =
  m "failed_pct" "%" (pct (float_of_int (L.failed t)) (float_of_int t.L.attempted))

let add_into total t =
  total.L.attempted <- total.L.attempted + t.L.attempted;
  total.L.shed <- total.L.shed + t.L.shed;
  total.L.wrong <- total.L.wrong + t.L.wrong;
  total.L.lost <- total.L.lost + t.L.lost;
  total.L.first_bad <- total.L.first_bad @ t.L.first_bad

(* ------------------------------------------------------------------ *)
(* daemon plumbing                                                     *)

let scratch_file ext = Printf.sprintf "_build/perfbench-%d.%s" (Unix.getpid ()) ext

let with_conns socket f =
  let conns = List.init jobs (fun _ -> L.open_conn socket) in
  Fun.protect ~finally:(fun () -> List.iter L.close_conn conns) (fun () -> f conns)

(* [f pid setup] with [setup] a sample: (seconds, steal ticks, seconds) *)
let with_daemon t ~argv ~socket f =
  let st = L.steal () in
  let pid, setup = L.start_daemon t ~argv ~socket in
  let setup = (setup, L.steal () - st, setup) in
  Fun.protect ~finally:(fun () -> L.stop pid) (fun () -> f pid setup)

(* the real daemon, as built by dune from this checkout *)
let serve_argv socket =
  [| "_build/default/bin/search_cli.exe"; "serve"; "--socket"; socket; "--jobs"; string_of_int jobs |]

let own_daemon_argv socket ~trace ~out =
  [| Sys.executable_name; "daemon"; socket; string_of_int jobs; (if trace then "1" else "0"); out |]

let stats socket =
  Search_serve.Client.with_client ~socket_path:socket @@ fun c ->
  match Search_serve.Client.call c ~id:0 P.Stats with
  | _, P.Stats_ok s -> s
  | _ -> L.failf "stats request not answered with stats"

let closed_rate (rates, steal) =
  fst (calm_median (List.init (Array.length rates) (fun i -> (rates.(i), steal.(i), bucket_s))))

(* ------------------------------------------------------------------ *)
(* end-to-end runs (untraced)                                          *)

let serve_e2e kind ~seed ~seconds =
  let reqs = W.requests kind ~seed in
  let t = L.target reqs (W.references reqs) in
  let socket = scratch_file "sock" in
  let argv = serve_argv socket in
  let warm = L.tally () and closed = L.tally () and opn = L.tally () in
  let setups = List.init (setup_reps - 1) (fun _ -> with_daemon t ~argv ~socket (fun _ s -> s)) in
  with_daemon t ~argv ~socket @@ fun pid setup ->
  let setups = setup :: setups in
  let rate = nominal_rate kind in
  (* steal is read every quarter second of requests; p50 uses those
     windows, p99 one-second windows so each has 10 samples beyond it *)
  let per = int_of_float (rate /. 4.) in
  let rounds = max 1 (min max_rounds (int_of_float (seconds /. 5.))) in
  let per_round = seconds /. float_of_int rounds in
  let closed_rounds, opens =
    with_conns socket @@ fun conns ->
    let next_id = ref 1 in
    ignore (L.closed_loop t conns ~next_id ~window ~seconds:warmup_s ~bucket:bucket_s warm);
    List.split
      (List.init rounds (fun _ ->
           let r =
             L.closed_loop t conns ~next_id ~window ~seconds:(0.4 *. per_round) ~bucket:bucket_s closed
           in
           (r, L.open_loop t conns ~next_id ~rate ~seconds:(0.6 *. per_round) ~per opn)))
  in
  let rss = L.peak_rss_mb pid in
  let total = L.tally () in
  add_into total closed;
  add_into total opn;
  let late = sorted (List.concat_map (fun o -> Array.to_list o.L.late) opens) in
  let buckets =
    List.concat_map
      (fun (rates, steal) -> List.init (Array.length rates) (fun i -> (rates.(i), steal.(i), bucket_s)))
      closed_rounds
  in
  let lat p ~group =
    windows p (List.map (fun o -> (o.L.latency, o.L.window_steal)) opens) ~per ~group ~secs:0.25
  in
  let ops, ops_calm = calm_median buckets in
  let p50, p50_calm = calm_median (lat 50. ~group:1) in
  let p99, _ = calm_median (lat 99. ~group:4) in
  let setup, setup_calm = calm_median setups in
  {
    workload = kind;
    tally = total;
    wrong = warm.L.wrong + total.L.wrong + total.L.lost + warm.L.lost;
    metrics =
      [
        m "setup_s" "s" setup;
        m "p50_us" "us" (us p50);
        m "peak_rss_mb" "MB" rss;
      ];
    notes =
      [
        m "ops_per_s" "1/s" ops;
        m "p99_us" "us" (us p99);
        failed_pct total;
        m "refused" "count" (float_of_int total.L.shed);
      ]
      @ samples "setup_s" setups setup_calm
      @ samples "ops_per_s" buckets ops_calm
      @ samples "p50_us" (lat 50. ~group:1) p50_calm
      @ [
        m "requests.open" "count" (float_of_int (Array.length late));
        m "rounds" "count" (float_of_int rounds);
        m "open.rate" "1/s" rate;
        m "closed.window" "count" (float_of_int window);
        m "loadgen.late_p99_us" "us" (us (percentile late 99.));
        m "loadgen.late_max_us" "us" (us late.(Array.length late - 1));
      ];
  }

let batch_rates r = List.map (fun b -> (b.Compute.rate, b.Compute.steal, b.Compute.secs)) r

let compute_e2e ~seed ~seconds =
  let c = Compute.prepare ~seed in
  let total = L.tally () and setup_t = L.tally () in
  let setups = List.init setup_reps (fun _ -> Compute.setup ~jobs c setup_t) in
  let r = Compute.timed ~jobs ~seed ~seconds c total in
  let walls = sorted (List.concat_map (fun b -> Array.to_list b.Compute.wall) r) in
  let rates = batch_rates r in
  let p50s =
    List.map
      (fun b -> (percentile (sorted (Array.to_list b.Compute.wall)) 50., b.Compute.steal, b.Compute.secs))
      r
  in
  let setup, setup_calm = calm_median setups in
  let ops, ops_calm = calm_median rates in
  let p50, p50_calm = calm_median p50s in
  {
    workload = W.Compute_batch;
    tally = total;
    wrong = total.L.wrong + setup_t.L.wrong;
    metrics =
      [
        m "setup_s" "s" setup;
        m "p50_us" "us" (us p50);
        m "peak_rss_mb" "MB" (L.peak_rss_mb 0);
      ];
    notes =
      [ m "ops_per_s" "1/s" ops; m "p99_us" "us" (us (percentile walls 99.)); failed_pct total ]
      @ samples "setup_s" setups setup_calm
      @ samples "ops_per_s" rates ops_calm
      @ samples "p50_us" p50s p50_calm
      @ [ m "items" "count" (float_of_int (Array.length c.Compute.items)) ];
  }

(* ------------------------------------------------------------------ *)
(* traced run (per-layer metrics)                                      *)

let in_window (d : Tracer.dump) lo hi =
  List.filter
    (fun i -> d.Tracer.span_starts.(i) >= lo && d.Tracer.span_starts.(i) < hi)
    (List.init (Array.length d.Tracer.span_kinds) Fun.id)

(* Server figures over the open-loop phase: the loop spends a cycle
   between two selects; [busy] is the phase minus time blocked in
   select. *)
let server_metrics (d : Tracer.dump) ~lo ~hi ~reqs =
  let idx = in_window d lo hi in
  let of_kind k = List.filter (fun i -> d.Tracer.span_kinds.(i) = k) idx in
  let sum f l = List.fold_left (fun a i -> a +. f i) 0. l in
  let dur i = d.Tracer.span_durs.(i) and size i = float_of_int d.Tracer.span_sizes.(i) in
  let selects = Array.of_list (of_kind 0) in
  let cycles = ref [] in
  for j = 0 to Array.length selects - 2 do
    let a = selects.(j) and b = selects.(j + 1) in
    if d.Tracer.span_sizes.(a) > 0 then
      cycles := (d.Tracer.span_starts.(b) -. (d.Tracer.span_starts.(a) +. dur a)) :: !cycles
  done;
  let cyc = sorted !cycles in
  if Array.length cyc = 0 then L.failf "traced daemon recorded no busy cycle";
  let window = hi -. lo in
  let r = float_of_int reqs in
  [
    m "server.busy_pct" "%" (pct (window -. sum dur (Array.to_list selects)) window);
    m "server.cycle_p50_us" "us" (us (percentile cyc 50.));
    m "server.cycle_p99_us" "us" (us (percentile cyc 99.));
    m "server.reqs_per_cycle" "count" (r /. float_of_int (Array.length cyc));
    m "server.read_us_per_req" "us" (us (sum dur (of_kind 1)) /. r);
    m "server.write_us_per_req" "us" (us (sum dur (of_kind 2)) /. r);
    m "server.syscalls_per_req" "count" (float_of_int (List.length idx) /. r);
    m "server.bytes_in_per_req" "bytes" (sum size (of_kind 1) /. r);
    m "server.bytes_out_per_req" "bytes" (sum size (of_kind 2) /. r);
  ]

let counter_metrics (s : P.server_stats) =
  let served = float_of_int s.P.served and sheds = float_of_int s.P.sheds in
  let c = s.P.cache in
  [
    m "backlog.sheds" "count" sheds;
    m "backlog.shed_pct" "%" (pct sheds (served +. sheds));
    m "dispatch.batch_mean" "count" (served /. float_of_int s.P.batches);
    m "dispatch.batch_max" "count" (float_of_int s.P.max_batch);
    m "dispatch.batches_per_kreq" "count" (1000. *. float_of_int s.P.batches /. served);
    m "dispatch.cache_hit_pct" "%"
      (pct (float_of_int c.P.hits) (float_of_int (c.P.hits + c.P.misses)));
    m "dispatch.cache_evictions" "count" (float_of_int c.P.evictions);
    m "pool.tasks_per_req" "count" (float_of_int s.P.pool.P.submitted /. served);
  ]

(* Math spans of a compute phase, and the share of pool time they do
   not cover (scheduling, supervision, idle domains). *)
let math_metrics ~elapsed =
  let spans = W.Span.names in
  let total = ref 0. in
  let per =
    Array.to_list
      (Array.mapi
         (fun i name ->
           let ns = float_of_int (Atomic.get W.Span.ns.(i)) in
           total := !total +. ns;
           let calls = Atomic.get W.Span.calls.(i) in
           m (name ^ "_us") "us" (if calls = 0 then 0. else ns /. 1e3 /. float_of_int calls))
         spans)
  in
  per
  @ [
      m "supervise.overhead_pct" "%"
        (100. *. (1. -. (!total /. 1e9 /. (float_of_int jobs *. elapsed))));
    ]

let gc_metrics ~minor ~major ~ops =
  [
    m "gc.minor_words_per_op" "words" (minor /. ops);
    m "gc.major_per_kop" "count" (1000. *. float_of_int major /. ops);
  ]

(* Traced and untraced figures are taken in this many alternating
   rounds, so a change of the host's speed falls on both alike. *)
let trace_rounds = 6

(* Compute slices, alternately without and with the math spans.  Returns
   the untraced and traced batches, and the traced slices' wall time and
   GC counters. *)
let compute_rounds c ~seed ~seconds tally =
  let slice = seconds /. float_of_int (2 * trace_rounds) in
  W.Span.reset ();
  let plain = ref [] and traced = ref [] in
  let elapsed = ref 0. and minor = ref 0. and major = ref 0 in
  for _ = 1 to trace_rounds do
    plain := Compute.timed ~jobs ~seed ~seconds:slice c tally @ !plain;
    W.Span.on := true;
    let g0 = Gc.quick_stat () and t0 = now () in
    traced := Compute.timed ~jobs ~seed ~seconds:slice c tally @ !traced;
    let g1 = Gc.quick_stat () in
    elapsed := !elapsed +. (now () -. t0);
    W.Span.on := false;
    minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    major := !major + (g1.Gc.major_collections - g0.Gc.major_collections)
  done;
  (!plain, !traced, !elapsed, !minor, !major)

let traced_run kind ~seed ~seconds =
  (* compute-batch has no daemon path; its traced run drives the traced
     daemon with the serve-mixed mix so every layer is still measured *)
  let mix_kind = match kind with W.Compute_batch -> W.Serve_mixed | k -> k in
  let reqs = W.requests mix_kind ~seed in
  let t = L.target reqs (W.references reqs) in
  let socket = scratch_file "sock" and out = scratch_file "spans" in
  let plain_socket = scratch_file "plain.sock" and plain_out = scratch_file "plain.spans" in
  let daemon_s = match kind with W.Compute_batch -> 0.3 *. seconds | _ -> 0.7 *. seconds in
  let compute_s = match kind with W.Compute_batch -> 0.6 *. seconds | _ -> 0.2 *. seconds in
  let warm = L.tally () and closed = L.tally () and opn = L.tally () in
  let rate = nominal_rate mix_kind in
  (* the same daemon binary, traced and not, side by side; closed-loop
     slices alternate between them, then the traced one takes the open
     loop the server figures come from *)
  let traced_rates, plain_rates, o, lo, hi, st =
    with_daemon t ~argv:(own_daemon_argv socket ~trace:true ~out) ~socket @@ fun _ _ ->
    with_daemon t ~argv:(own_daemon_argv plain_socket ~trace:false ~out:plain_out)
      ~socket:plain_socket
    @@ fun _ _ ->
    with_conns socket @@ fun conns ->
    with_conns plain_socket @@ fun plain_conns ->
    let next_id = ref 1 in
    let loop conns seconds tally =
      L.closed_loop t conns ~next_id ~window ~seconds ~bucket:bucket_s tally
    in
    ignore (loop conns warmup_s warm);
    ignore (loop plain_conns warmup_s warm);
    let slice = 0.4 *. daemon_s /. float_of_int (2 * trace_rounds) in
    let traced, plain =
      List.split (List.init trace_rounds (fun _ ->
          let a = loop conns slice closed in
          (a, loop plain_conns slice closed)))
    in
    let merge l = (Array.concat (List.map fst l), Array.concat (List.map snd l)) in
    let lo = now () in
    let o = L.open_loop t conns ~next_id ~rate ~seconds:(0.6 *. daemon_s) ~per:(int_of_float rate) opn in
    let hi = now () in
    (closed_rate (merge traced), closed_rate (merge plain), o, lo, hi, stats socket)
  in
  let dump = Tracer.load out in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ out; plain_out ];
  let late = sorted (Array.to_list o.L.late) in
  let total = L.tally () in
  List.iter (add_into total) [ warm; closed; opn ];
  let layers = Layers.measure ~jobs ~requests:(W.requests W.Serve_mixed ~seed) ~mix:reqs in
  let c = Compute.prepare ~seed in
  let plain, traced, elapsed, minor, major = compute_rounds c ~seed ~seconds:compute_s total in
  let overhead untraced traced = m "trace.overhead_pct" "%" (pct (untraced -. traced) untraced) in
  let ops_of batches = fst (calm_median (batch_rates batches)) in
  let own =
    match kind with
    | W.Compute_batch ->
        let items = float_of_int (List.length traced * Array.length c.Compute.items) in
        gc_metrics ~minor ~major ~ops:items @ [ overhead (ops_of plain) (ops_of traced) ]
    | W.Serve_hot | W.Serve_mixed ->
        gc_metrics ~minor:dump.Tracer.minor_words ~major:dump.Tracer.major_collections
          ~ops:(float_of_int st.P.served)
        @ [ overhead plain_rates traced_rates ]
  in
  {
    workload = kind;
    tally = total;
    wrong = total.L.wrong + total.L.lost;
    metrics =
      server_metrics dump ~lo ~hi ~reqs:opn.L.attempted
      @ counter_metrics st
      @ List.map (fun (n, v) -> m n "us" v) layers
      @ [
          m "loadgen.late_p99_us" "us" (us (percentile late 99.));
          m "loadgen.late_max_us" "us" (us late.(Array.length late - 1));
        ]
      @ math_metrics ~elapsed
      @ own;
    notes = [ failed_pct total ];
  }

(* ------------------------------------------------------------------ *)
(* command line                                                        *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload serve-hot|serve-mixed|compute-batch|all --seed N \
     --seconds S --trace 0|1 [--commit SHA]";
  exit 2

type opts = {
  workloads : W.kind list;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
}

let parse argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: "all" :: rest -> go { o with workloads = W.all } rest
    | "--workload" :: v :: rest -> (
        match W.of_name v with Some k -> go { o with workloads = [ k ] } rest | None -> usage ())
    | "--seed" :: v :: rest -> go { o with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { o with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--commit" :: v :: rest -> go { o with commit = v } rest
    | _ -> usage ()
  in
  let o =
    go
      {
        workloads = [];
        seed = 1;
        seconds = 10.;
        trace = false;
        commit = "unknown";
      }
      argv
  in
  if o.workloads = [] || o.seconds <= 0. then usage ();
  o

let json_metrics ms =
  FS.Json.Assoc
    (List.map
       (fun x ->
         if not (Float.is_finite x.value) then L.failf "metric %s is not finite" x.name;
         (x.name, FS.Json.Assoc [ ("value", FS.Json.Number x.value); ("unit", FS.Json.String x.unit_) ]))
       ms)

let fingerprint o =
  FS.Json.Assoc
    [
      ( "fingerprint",
        FS.Json.Assoc
          [
            ("nproc", FS.Json.Number (float_of_int jobs));
            ("ocaml", FS.Json.String Sys.ocaml_version);
            ("word_size", FS.Json.Number (float_of_int Sys.word_size));
            ("commit", FS.Json.String o.commit);
            ("daemon_jobs", FS.Json.Number (float_of_int jobs));
            ("seed", FS.Json.Number (float_of_int o.seed));
            ("seconds", FS.Json.Number o.seconds);
            ("trace", FS.Json.Bool o.trace);
          ] );
    ]

let run_one o kind =
  if o.trace then traced_run kind ~seed:o.seed ~seconds:o.seconds
  else
    match kind with
    | W.Compute_batch -> compute_e2e ~seed:o.seed ~seconds:o.seconds
    | W.Serve_hot | W.Serve_mixed -> serve_e2e kind ~seed:o.seed ~seconds:o.seconds

let main argv =
  let o = parse argv in
  (* a daemon that dies mid-run must fail the run, not kill it silently;
     an interrupted run still stops its daemons on the way out *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let interrupted _ = raise (L.Bench_failure "interrupted") in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  print_endline (FS.Json.to_string (fingerprint o));
  let results = List.map (run_one o) o.workloads in
  let single = List.length results = 1 in
  let qualify r x = if single then x else { x with name = W.name r.workload ^ "." ^ x.name } in
  List.iter
    (fun r ->
      List.iter
        (fun x -> Printf.printf "%-14s %-32s %16.4f %s\n" (W.name r.workload) x.name x.value x.unit_)
        (r.metrics @ r.notes);
      List.iter (fun msg -> Printf.printf "%-14s MISMATCH %s\n" (W.name r.workload) msg) r.tally.L.first_bad)
    results;
  let correct = List.for_all (fun r -> r.wrong = 0) results in
  let sum f = List.fold_left (fun a r -> a + f r.tally) 0 results in
  print_endline
    (FS.Json.to_string
       (FS.Json.Assoc
          [
            ("correct", FS.Json.Bool correct);
            ("attempted", FS.Json.Number (float_of_int (sum (fun t -> t.L.attempted))));
            ("failed", FS.Json.Number (float_of_int (sum L.failed)));
            ("metrics", json_metrics (List.concat_map (fun r -> List.map (qualify r) r.metrics) results));
          ]));
  if correct then 0 else 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "daemon" :: socket :: j :: trace :: out :: [] ->
      Tracer.daemon ~socket ~jobs:(int_of_string j) ~trace:(trace = "1") ~out
  | _ :: args -> (
      match main args with
      | code -> exit code
      | exception (L.Bench_failure msg | Failure msg) ->
          prerr_endline ("perfbench: " ^ msg);
          exit 1)
  | [] -> usage ()
