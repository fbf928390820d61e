(* serve-load: deterministic load generator for the serve daemon.

   Drives N concurrent connections (closed loop: one outstanding request
   per connection) over the seeded workload mix the whole-system
   simulator also uses ({!Search_dst.Harness.gen_request}): mostly bound
   queries over a small parameter pool (so the shared cache gets hits),
   plus certificates, Monte-Carlo simulations, sweeps and a few stats
   probes.  Prints one JSON object on stdout: the run's shape, the
   overload-retry count, the response digest and the server's stats.
   Timing is perfbench's job; this tool never reads the clock.

   Determinism check: the workload is a pure function of --seed, and the
   daemon's responses are pure functions of the requests, so the hex
   digest — computed over the terminal response bytes of every non-stats
   request, in global request order — is identical no matter how many
   worker domains the daemon runs (--jobs 1 vs 4), how requests
   interleave, or how often admission control sheds (shed requests are
   retried until served; the retries are counted, the eventual response
   is the same bytes). *)

module FS = Faulty_search
module P = Search_serve.Protocol

let usage () =
  prerr_endline
    "usage: serve_load [--socket PATH] [--conns N] [--requests N] [--seed S]";
  exit 2

type opts = {
  mutable socket : string;
  mutable conns : int;
  mutable requests : int;
  mutable seed : int;
}

let parse_args () =
  let o =
    { socket = "/tmp/faulty-search.sock"; conns = 200; requests = 1000; seed = 1 }
  in
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> o
    | "--socket" :: v :: rest ->
        o.socket <- v;
        go rest
    | "--conns" :: v :: rest ->
        o.conns <- int_arg v;
        go rest
    | "--requests" :: v :: rest ->
        o.requests <- int_arg v;
        go rest
    | "--seed" :: v :: rest ->
        o.seed <- int_arg v;
        go rest
    | _ -> usage ()
  in
  let o = go (List.tl (Array.to_list Sys.argv)) in
  (* --requests 0 is legal: connect once and report the server stats *)
  if o.conns < 1 || o.requests < 0 then usage ();
  o

let is_stats = function
  | P.Stats -> true
  | P.Bound _ | P.Certify _ | P.Sweep _ | P.Simulate _ -> false

(* ------------------------------------------------------------------ *)
(* connection driver                                                   *)

type conn = {
  fd : Unix.file_descr;
  decoder : P.Frame.Decoder.t;
  out : Buffer.t;
  mutable sent : int;
  mutable current : int option;  (** outstanding global request index *)
  mutable pending : int list;  (** assigned indices still to issue *)
}

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("serve_load: " ^ s); exit 1) fmt

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> ()
  | exception Unix.Unix_error (err, _, _) ->
      fail "cannot connect to %s: %s" path (Unix.error_message err));
  Unix.set_nonblock fd;
  {
    fd;
    decoder = P.Frame.Decoder.create ();
    out = Buffer.create 256;
    sent = 0;
    current = None;
    pending = [];
  }

let enqueue_request requests c i =
  Buffer.add_string c.out (P.Frame.encode (P.encode_request ~id:i requests.(i)))

let flush_writes c =
  let pending = Buffer.length c.out - c.sent in
  if pending > 0 then
    match Unix.write_substring c.fd (Buffer.contents c.out) c.sent pending with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (err, _, _) ->
        fail "write: %s" (Unix.error_message err)
    | n ->
        c.sent <- c.sent + n;
        if c.sent >= Buffer.length c.out then begin
          Buffer.clear c.out;
          c.sent <- 0
        end

let () =
  let o = parse_args () in
  (* pre-generate the whole schedule so it is a pure function of --seed *)
  let requests = Array.make o.requests P.Stats in
  let prng = ref (FS.Prng.make ~seed:o.seed) in
  for i = 0 to o.requests - 1 do
    let req, p = Search_dst.Harness.gen_request ~light:false !prng in
    requests.(i) <- req;
    prng := p
  done;
  let responses = Array.make o.requests "" in
  let retries = ref 0 in
  let completed = ref 0 in
  let conns = Array.init (min o.conns o.requests) (fun _ -> connect o.socket) in
  (* request i belongs to connection (i mod conns), issued in order *)
  for i = o.requests - 1 downto 0 do
    let c = conns.(i mod Array.length conns) in
    c.pending <- i :: c.pending
  done;
  let issue_next c =
    match c.pending with
    | [] -> ()
    | i :: rest ->
        c.pending <- rest;
        c.current <- Some i;
        enqueue_request requests c i
  in
  Array.iter issue_next conns;
  let handle_response c (id, resp) =
    match c.current with
    | None -> fail "unexpected response id=%d on idle connection" id
    | Some i when id <> i -> fail "response id %d does not match outstanding %d" id i
    | Some i -> (
        match resp with
        | P.Overloaded _ ->
            (* admission control pushed back: retry the same request *)
            incr retries;
            enqueue_request requests c i
        | P.Bound_ok _ | P.Certify_ok _ | P.Sweep_ok _ | P.Simulate_ok _
        | P.Stats_ok _ | P.Failed _ ->
            responses.(i) <-
              FS.Json.to_string (P.response_to_json resp);
            incr completed;
            c.current <- None;
            issue_next c)
  in
  let drain_frames c =
    let rec go () =
      match P.Frame.Decoder.next c.decoder with
      | `Awaiting -> ()
      | `Corrupt msg -> fail "corrupt stream from server: %s" msg
      | `Frame payload ->
          (match P.decode_response payload with
          | Ok r -> handle_response c r
          | Error msg -> fail "undecodable response: %s" msg);
          go ()
    in
    go ()
  in
  let scratch = Bytes.create 65536 in
  let read_conn c =
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (err, _, _) ->
        fail "read: %s" (Unix.error_message err)
    | 0 -> fail "server closed the connection mid-run"
    | n ->
        P.Frame.Decoder.feed c.decoder scratch ~off:0 ~len:n;
        drain_frames c
  in
  while !completed < o.requests do
    let live = Array.to_list conns in
    let rds =
      List.filter_map
        (fun c -> if Option.is_some c.current then Some c.fd else None)
        live
    in
    let wrs =
      List.filter_map
        (fun c -> if Buffer.length c.out - c.sent > 0 then Some c.fd else None)
        live
    in
    match Unix.select rds wrs [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        let by_fd = Hashtbl.create (Array.length conns) in
        Array.iter (fun c -> Hashtbl.replace by_fd c.fd c) conns;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt by_fd fd with
            | Some c -> flush_writes c
            | None -> ())
          writable;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt by_fd fd with
            | Some c -> read_conn c
            | None -> ())
          readable
  done;
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  (* final server-side counters over a fresh connection *)
  let stats_json =
    Search_serve.Client.with_client ~socket_path:o.socket @@ fun cl ->
    let _, resp = Search_serve.Client.call cl ~id:o.requests P.Stats in
    P.response_to_json resp
  in
  (* digest over terminal response bytes of the deterministic requests,
     in schedule order — stats probes are observational and excluded *)
  let digest =
    let b = Buffer.create 4096 in
    Array.iteri
      (fun i s ->
        if not (is_stats requests.(i)) then begin
          Buffer.add_string b s;
          Buffer.add_char b '\n'
        end)
      responses;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let report =
    FS.Json.Assoc
      [
        ("bench", FS.Json.String "serve-load");
        ("connections", FS.Json.Number (float_of_int (Array.length conns)));
        ("requests", FS.Json.Number (float_of_int o.requests));
        ("seed", FS.Json.Number (float_of_int o.seed));
        ("overload_retries", FS.Json.Number (float_of_int !retries));
        ("response_digest", FS.Json.String digest);
        ("server_stats", stats_json);
      ]
  in
  print_endline (FS.Json.to_string ~pretty:true report)
