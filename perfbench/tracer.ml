(* The benchmark-owned daemon: [Server.run] with the daemon's default
   configuration, optionally on a copy of [Runtime.unix] whose [select],
   [read], [write] and [accept] record a span per call.  Spans stay in
   memory and are written out when the daemon stops, with the GC
   counters of its lifetime. *)

module Runtime = Search_serve.Runtime

type kind = Select | Read | Write | Accept

let kind_code = function Select -> 0 | Read -> 1 | Write -> 2 | Accept -> 3

(* growable column store: kind, start (s), duration (s), bytes or
   ready-fd count *)
type spans = {
  mutable n : int;
  mutable kinds : int array;
  mutable starts : float array;
  mutable durs : float array;
  mutable sizes : int array;
}

let spans = { n = 0; kinds = [||]; starts = [||]; durs = [||]; sizes = [||] }

let record kind t0 t1 size =
  if spans.n = Array.length spans.kinds then begin
    let cap = max 4096 (2 * spans.n) in
    let grow a z = Array.append a (Array.make (cap - Array.length a) z) in
    spans.kinds <- grow spans.kinds 0;
    spans.starts <- grow spans.starts 0.;
    spans.durs <- grow spans.durs 0.;
    spans.sizes <- grow spans.sizes 0
  end;
  let i = spans.n in
  spans.kinds.(i) <- kind_code kind;
  spans.starts.(i) <- t0;
  spans.durs.(i) <- t1 -. t0;
  spans.sizes.(i) <- size;
  spans.n <- i + 1

let traced (ops : Unix.file_descr Runtime.ops) =
  let now = Unix.gettimeofday in
  {
    ops with
    Runtime.select =
      (fun ~read ~write ~timeout ->
        let t0 = now () in
        let ((r, w) as ready) = ops.Runtime.select ~read ~write ~timeout in
        record Select t0 (now ()) (List.length r + List.length w);
        ready);
    read =
      (fun fd buf ~off ~len ->
        let t0 = now () in
        let res = ops.Runtime.read fd buf ~off ~len in
        record Read t0 (now ()) (match res with `Data n -> n | _ -> 0);
        res);
    write =
      (fun fd s ~off ~len ->
        let t0 = now () in
        let res = ops.Runtime.write fd s ~off ~len in
        record Write t0 (now ()) (match res with `Wrote n -> n | _ -> 0);
        res);
    accept =
      (fun fd ->
        let t0 = now () in
        let res = ops.Runtime.accept fd in
        record Accept t0 (now ()) 0;
        res);
  }

(* [bench.exe daemon SOCKET JOBS TRACE OUT]: serve until SIGTERM, then
   write the spans (traced) and GC counters to OUT. *)
let daemon ~socket ~jobs ~trace ~out =
  let stop = Atomic.make false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true));
  let runtime = if trace then Runtime.T (traced Runtime.unix) else Runtime.default in
  let gc0 = Gc.quick_stat () in
  Search_exec.Pool.with_pool ~jobs (fun pool ->
      let dispatch = Search_serve.Dispatch.create ~pool () in
      Search_serve.Server.run ~runtime
        (Search_serve.Server.config ~socket_path:socket ())
        ~dispatch ~stop);
  let gc1 = Gc.quick_stat () in
  Out_channel.with_open_text out @@ fun oc ->
  Printf.fprintf oc "gc %.17g %d\n"
    (gc1.Gc.minor_words -. gc0.Gc.minor_words)
    (gc1.Gc.major_collections - gc0.Gc.major_collections);
  for i = 0 to spans.n - 1 do
    Printf.fprintf oc "%d %.17g %.17g %d\n" spans.kinds.(i) spans.starts.(i) spans.durs.(i)
      spans.sizes.(i)
  done

type dump = {
  minor_words : float;
  major_collections : int;
  span_kinds : int array;
  span_starts : float array;
  span_durs : float array;
  span_sizes : int array;
}

let load path =
  In_channel.with_open_text path @@ fun ic ->
  let minor_words, major_collections =
    match In_channel.input_line ic with
    | Some l -> Scanf.sscanf l "gc %f %d" (fun a b -> (a, b))
    | None -> Loadgen.failf "empty span file %s" path
  in
  let k = ref [] and s = ref [] and d = ref [] and z = ref [] in
  let rec go () =
    match In_channel.input_line ic with
    | None -> ()
    | Some l ->
        Scanf.sscanf l "%d %f %f %d" (fun a b c e ->
            k := a :: !k;
            s := b :: !s;
            d := c :: !d;
            z := e :: !z);
        go ()
  in
  go ();
  let arr l = Array.of_list (List.rev l) in
  {
    minor_words;
    major_collections;
    span_kinds = arr !k;
    span_starts = arr !s;
    span_durs = arr !d;
    span_sizes = arr !z;
  }
