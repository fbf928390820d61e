(* The load generator: one single-threaded process multiplexing a few
   Unix-domain connections on a select loop.  It spawns the daemon, times
   its start-up, drives a closed loop (saturation throughput) and an open
   loop (latency at a fixed rate), and checks every reply against the
   reference bytes as it arrives.  Refusals are never retried. *)

module P = Search_serve.Protocol

let now = Unix.gettimeofday

exception Bench_failure of string

let failf fmt = Printf.ksprintf (fun s -> raise (Bench_failure s)) fmt

(* ------------------------------------------------------------------ *)
(* daemon processes                                                    *)

let spawn argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () -> Unix.create_process argv.(0) argv devnull devnull Unix.stderr)

(* SIGTERM, wait up to 5 s for the clean shutdown the daemon promises,
   then SIGKILL; always reaps the child. *)
let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 5. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.002;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* VmHWM of a process, in MiB *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path @@ fun ic ->
  let rec go () =
    match In_channel.input_line ic with
    | None -> failf "no VmHWM in %s" path
    | Some line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | Some _ -> go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* host steal                                                          *)

(* Ticks (1/100 s, summed over CPUs) during which the hypervisor ran
   something else although this machine's CPUs had work: the steal
   column of /proc/stat.  0 where the counter is unavailable. *)
let steal () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (fun f -> f <> "") (String.split_on_char ' ' line) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: st :: _ -> (
          match int_of_string_opt st with Some n -> n | None -> 0)
      | _ -> 0)
  | None -> 0
  | exception Sys_error _ -> 0

(* Steal counter read at interval boundaries 0..n: [mark m i] reads it
   the first time boundary [i] is reached (boundaries skipped over get
   the same reading); [intervals] gives the ticks of each interval. *)
let marks n = Array.make (n + 1) (-1)

let mark m i =
  if i >= 0 && i < Array.length m && m.(i) < 0 then begin
    let s = steal () in
    for k = 0 to i do
      if m.(k) < 0 then m.(k) <- s
    done
  end

let intervals m =
  let s = steal () in
  Array.iteri (fun k v -> if v < 0 then m.(k) <- s) m;
  Array.init (Array.length m - 1) (fun i -> m.(i + 1) - m.(i))

(* ------------------------------------------------------------------ *)
(* connections                                                         *)

type conn = {
  fd : Unix.file_descr;
  decoder : P.Frame.Decoder.t;
  out : Buffer.t;
  mutable sent : int;
  mutable outstanding : int;
}

let connect ~socket ~deadline =
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.0002;
        go ()
    | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        failf "connect %s: %s" socket (Unix.error_message e)
  in
  go ()

let open_conn socket =
  let fd = connect ~socket ~deadline:(now () +. 10.) in
  Unix.set_nonblock fd;
  { fd; decoder = P.Frame.Decoder.create (); out = Buffer.create 4096; sent = 0; outstanding = 0 }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let flush c =
  let pending = Buffer.length c.out - c.sent in
  if pending > 0 then
    match Unix.write_substring c.fd (Buffer.contents c.out) c.sent pending with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> failf "write: %s" (Unix.error_message e)
    | n ->
        c.sent <- c.sent + n;
        if c.sent >= Buffer.length c.out then begin
          Buffer.clear c.out;
          c.sent <- 0
        end

(* ------------------------------------------------------------------ *)
(* reply checking                                                      *)

type target = {
  reqs : Workload.requests;
  refs : string array;  (** reference reply tails, "" for stats *)
  encoded : string array;  (** request frames, id spliced in at send *)
}

let target reqs refs =
  (* a request frame is {"id":I,"req":R}; pre-render the part after I *)
  let encoded =
    Array.map (fun r -> Workload.reply_tail (P.encode_request ~id:0 r)) reqs.Workload.pool
  in
  { reqs; refs; encoded }

let pool_index t id = t.reqs.Workload.schedule.(id land (Workload.schedule_len - 1))

let enqueue t c id =
  let body = "{\"id\":" ^ string_of_int id ^ t.encoded.(pool_index t id) in
  Buffer.add_string c.out (P.Frame.encode body);
  c.outstanding <- c.outstanding + 1

type outcome = Good | Shed | Bad of string

let prefix = "{\"id\":"

(* [Good] when the reply's bytes after the id equal the reference's *)
let check t payload =
  let n = String.length payload and pl = String.length prefix in
  let rec digits i = if i < n && payload.[i] >= '0' && payload.[i] <= '9' then digits (i + 1) else i in
  let stop = if n > pl && String.starts_with ~prefix payload then digits pl else pl in
  if stop = pl then (-1, Bad "reply without a numeric id")
  else
    let id = int_of_string (String.sub payload pl (stop - pl)) in
    let r = t.refs.(pool_index t id) in
    let same =
      String.length r = n - stop
      &&
      let rec eq i = i >= String.length r || (r.[i] = payload.[stop + i] && eq (i + 1)) in
      eq 0
    in
    if same then (id, Good)
    else
      match P.decode_response payload with
      | Ok (_, P.Overloaded _) -> (id, Shed)
      | Ok (_, P.Stats_ok _) when String.equal r "" -> (id, Good)
      | Ok (_, P.Failed e) ->
          (id, Bad (Format.asprintf "request %d failed: %a" id Search_numerics.Search_error.pp e))
      | Ok _ -> (id, Bad (Printf.sprintf "request %d: reply differs from the reference" id))
      | Error msg -> (id, Bad (Printf.sprintf "request %d: undecodable reply: %s" id msg))

(* Tallies of one phase.  [first_bad] holds the first few mismatches so a
   failing run says what went wrong. *)
type tally = {
  mutable attempted : int;
  mutable shed : int;
  mutable wrong : int;
  mutable lost : int;  (** no reply by the end of the phase *)
  mutable first_bad : string list;
}

let tally () = { attempted = 0; shed = 0; wrong = 0; lost = 0; first_bad = [] }
let failed t = t.shed + t.wrong + t.lost

let note tally = function
  | Good -> ()
  | Shed -> tally.shed <- tally.shed + 1
  | Bad msg ->
      tally.wrong <- tally.wrong + 1;
      if List.length tally.first_bad < 5 then tally.first_bad <- msg :: tally.first_bad

let scratch = Bytes.create 65536

(* Read what is available on [c] and hand each reply to [on_reply]. *)
let read_conn c on_reply =
  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> failf "read: %s" (Unix.error_message e)
  | 0 -> failf "daemon closed a connection mid-run"
  | n ->
      P.Frame.Decoder.feed c.decoder scratch ~off:0 ~len:n;
      let rec go () =
        match P.Frame.Decoder.next c.decoder with
        | `Awaiting -> ()
        | `Corrupt msg -> failf "corrupt stream from the daemon: %s" msg
        | `Frame payload ->
            c.outstanding <- c.outstanding - 1;
            on_reply c payload;
            go ()
      in
      go ()

(* One select round over every connection: flush pending output, read
   replies.  [timeout] in seconds. *)
let poll conns ~timeout on_reply =
  let rds = List.filter_map (fun c -> if c.outstanding > 0 then Some c.fd else None) conns in
  let wrs =
    List.filter_map (fun c -> if Buffer.length c.out > c.sent then Some c.fd else None) conns
  in
  match Unix.select rds wrs [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
      List.iter (fun c -> if List.memq c.fd writable then flush c) conns;
      List.iter (fun c -> if List.memq c.fd readable then read_conn c on_reply) conns

(* After the last send, wait up to [grace] seconds for the stragglers;
   whatever is still unanswered then is lost. *)
let drain conns ~grace tally on_reply =
  let deadline = now () +. grace in
  while List.exists (fun c -> c.outstanding > 0) conns && now () < deadline do
    poll conns ~timeout:0.01 on_reply
  done;
  List.iter
    (fun c ->
      tally.lost <- tally.lost + c.outstanding;
      c.outstanding <- 0)
    conns

(* ------------------------------------------------------------------ *)
(* start-up                                                            *)

(* Spawn [argv], connect, send the first [bound] request of the schedule
   (a bound, so the time does not depend on which op the seed put first)
   and wait for its correct reply: the seconds from spawn to that reply.
   Leaves the daemon running. *)
let start_daemon t ~argv ~socket =
  let rec first_bound id =
    match t.reqs.Workload.pool.(pool_index t id) with
    | P.Bound _ -> id
    | P.Certify _ | P.Sweep _ | P.Simulate _ | P.Stats -> first_bound (id + 1)
  in
  let id = first_bound 0 in
  let t0 = now () in
  let pid = spawn argv in
  match
    let c = open_conn socket in
    Fun.protect ~finally:(fun () -> close_conn c) @@ fun () ->
    enqueue t c id;
    let result = ref None in
    let deadline = now () +. 30. in
    while Option.is_none !result && now () < deadline do
      poll [ c ] ~timeout:0.01 (fun _ payload -> result := Some (check t payload))
    done;
    match !result with
    | Some (_, Good) -> now () -. t0
    | Some (_, Shed) -> failf "first request refused"
    | Some (_, Bad msg) -> failf "first reply: %s" msg
    | None -> failf "no reply from the daemon within 30 s"
  with
  | setup -> (pid, setup)
  | exception e ->
      stop pid;
      raise e

(* ------------------------------------------------------------------ *)
(* closed loop                                                         *)

(* [window] requests in flight, spread evenly over [conns]; each reply
   releases the next request on its connection.  Returns the completions
   per second of each whole [bucket]-second interval, with the steal
   ticks of that interval, so throughput is read as a median that a
   brief stall of the machine does not move. *)
let closed_loop t conns ~next_id ~window ~seconds ~bucket tally =
  let per = max 1 (window / List.length conns) in
  let t0 = now () in
  let until = t0 +. seconds in
  let buckets = Array.make (max 1 (int_of_float (seconds /. bucket))) 0 in
  let steals = marks (Array.length buckets) in
  let send c =
    let id = !next_id in
    incr next_id;
    tally.attempted <- tally.attempted + 1;
    enqueue t c id;
    flush c
  in
  let on_reply c payload =
    let tr = now () in
    let _, o = check t payload in
    note tally o;
    let b = int_of_float ((tr -. t0) /. bucket) in
    if b < Array.length buckets then buckets.(b) <- buckets.(b) + 1;
    if tr < until then send c
  in
  mark steals 0;
  List.iter (fun c -> for _ = 1 to per do send c done) conns;
  while now () < until do
    poll conns ~timeout:0.01 on_reply;
    mark steals (int_of_float ((now () -. t0) /. bucket))
  done;
  let steal = intervals steals in
  drain conns ~grace:5. tally (fun _ payload -> note tally (snd (check t payload)));
  (Array.map (fun n -> float_of_int n /. bucket) buckets, steal)

(* ------------------------------------------------------------------ *)
(* open loop                                                           *)

type open_result = {
  latency : float array;  (** seconds from due time to reply, per request *)
  late : float array;  (** seconds the generator sent each request late *)
  window_steal : int array;  (** steal ticks per window of [per] requests *)
}

(* Request j is due at [t0 + j / rate], sent round-robin over [conns]
   whatever the daemon is doing, and timed from its due time, so a stall
   is charged to every request queued behind it.  A refused or failed
   request gets the phase length as its latency: it missed any limit.
   Steal is read every [per] requests. *)
let open_loop t conns ~next_id ~rate ~seconds ~per tally =
  let n = int_of_float (rate *. seconds) in
  let steals = marks (n / per) in
  let conns_a = Array.of_list conns in
  let latency = Array.make n seconds and late = Array.make n 0. in
  let base = !next_id in
  next_id := base + n;
  let t0 = now () +. 0.001 in
  let due j = t0 +. (float_of_int j /. rate) in
  let on_reply _ payload =
    let tr = now () in
    let id, o = check t payload in
    note tally o;
    let j = id - base in
    match o with
    | Good when j >= 0 && j < n -> latency.(j) <- tr -. due j
    | Good | Shed | Bad _ -> ()
  in
  let j = ref 0 in
  while !j < n do
    let tn = now () in
    while !j < n && due !j <= tn do
      let c = conns_a.(!j mod Array.length conns_a) in
      late.(!j) <- tn -. due !j;
      if !j mod per = 0 then mark steals (!j / per);
      tally.attempted <- tally.attempted + 1;
      enqueue t c (base + !j);
      incr j
    done;
    Array.iter flush conns_a;
    let timeout = if !j < n then Float.max 0. (due !j -. now ()) else 0. in
    poll conns ~timeout on_reply
  done;
  let window_steal = intervals steals in
  drain conns ~grace:5. tally on_reply;
  { latency; late; window_steal }
