(* Tests for the deterministic whole-system simulator: the discrete-event
   scheduler (virtual clock, seeded interleavings, crash capture), the
   fake network (fragmented delivery, clean EOF, refused connects, fd
   accounting), and the harness that boots the real daemon plus simulated
   clients inside one seed — whose load-bearing properties are (a) a run
   is a pure function of its scenario (byte-identical traces across
   reruns and across --jobs), (b) the invariant oracles hold across many
   seeds with network faults enabled, and (c) a deliberately injected
   server bug is found by seed search, shrinks, and replays from its
   corpus entry. *)

module Sim = Search_dst.Sim
module Net = Search_dst.Net
module Harness = Search_dst.Harness
module Runtime = Search_serve.Runtime
module Prng = Search_numerics.Prng
module P = Search_serve.Protocol
module Json = Search_numerics.Json
module E = Search_numerics.Search_error

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rm_rf dir =
  let rec go p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists dir then go dir

(* ------------------------------------------------------------------ *)
(* the scheduler *)

let test_sim_clock_and_timer_order () =
  let sim = Sim.create ~prng:(Prng.make ~seed:1) in
  let log = ref [] in
  Sim.spawn sim ~name:"late" (fun () ->
      Sim.sleep sim 0.5;
      log := "late" :: !log);
  Sim.spawn sim ~name:"early" (fun () ->
      Sim.sleep sim 0.1;
      log := "early" :: !log);
  check_bool "clock starts at zero" true (Float.equal (Sim.now sim) 0.);
  (match Sim.run sim ~deadline:10. with
  | `Quiescent -> ()
  | `Deadline -> Alcotest.fail "expected quiescence");
  check_bool "timers fired in time order" true
    (match !log with
    | [ "late"; "early" ] -> true
    | _ -> false);
  check_bool "clock advanced to the last timer" true
    (Float.equal (Sim.now sim) 0.5);
  check_int "no fiber still live" 0 (Sim.live sim)

let interleaving ~seed =
  let sim = Sim.create ~prng:(Prng.make ~seed) in
  let log = Buffer.create 64 in
  for i = 0 to 4 do
    Sim.spawn sim ~name:(string_of_int i) (fun () ->
        for step = 0 to 3 do
          Buffer.add_string log (Printf.sprintf "%d.%d;" i step);
          Sim.yield sim
        done)
  done;
  (match Sim.run sim ~deadline:1. with
  | `Quiescent -> ()
  | `Deadline -> Alcotest.fail "expected quiescence");
  Buffer.contents log

let test_sim_seeded_interleaving () =
  (* the schedule is a pure function of the seed... *)
  check_string "same seed, same interleaving" (interleaving ~seed:42)
    (interleaving ~seed:42);
  (* ... and the seed genuinely mixes runnables (5 fibers x 4 steps:
     some seed among these must deviate from any fixed order) *)
  let base = interleaving ~seed:0 in
  check_bool "some seed interleaves differently" true
    (List.exists
       (fun seed -> not (String.equal base (interleaving ~seed)))
       [ 1; 2; 3; 4; 5 ])

let test_sim_crash_capture_and_deadline () =
  let sim = Sim.create ~prng:(Prng.make ~seed:7) in
  Sim.spawn sim ~name:"bomb" (fun () -> failwith "boom");
  Sim.spawn sim ~name:"sleeper" (fun () -> Sim.sleep sim 100.);
  (match Sim.run sim ~deadline:1. with
  | `Deadline -> ()
  | `Quiescent -> Alcotest.fail "expected a deadline overrun");
  (match Sim.crashes sim with
  | [ ("bomb", Failure _) ] -> ()
  | _ -> Alcotest.fail "crash not captured under its fiber name");
  check_int "the sleeper is still live" 1 (Sim.live sim)

(* ------------------------------------------------------------------ *)
(* the fake network *)

let pattern n = String.init n (fun i -> Char.chr (i * 31 mod 256))

let test_net_fragmented_roundtrip () =
  let sim = Sim.create ~prng:(Prng.make ~seed:11) in
  let net = Net.create ~sim ~prng:(Prng.make ~seed:12) ~faults:false in
  let ops = Net.ops net in
  let payload = pattern 5000 in
  let got = Buffer.create 5000 in
  Sim.spawn sim ~name:"server" (fun () ->
      let lfd = ops.Runtime.listen ~path:"/sim/echo.sock" in
      let rec accept_loop () =
        match ops.Runtime.accept lfd with
        | `Conn fd -> fd
        | `Again ->
            ignore
              (ops.Runtime.select ~read:[ lfd ] ~write:[] ~timeout:1.0);
            accept_loop ()
        | `Err e -> Alcotest.fail ("accept: " ^ e)
      in
      let fd = accept_loop () in
      let buf = Bytes.create 256 in
      let rec drain () =
        if Buffer.length got < String.length payload then
          match ops.Runtime.read_blocking fd buf ~off:0 ~len:256 with
          | `Data n ->
              Buffer.add_subbytes got buf 0 n;
              drain ()
          | `Eof -> ()
          | `Err e -> Alcotest.fail ("read: " ^ e)
      in
      drain ();
      ops.Runtime.close fd;
      ops.Runtime.close lfd;
      ops.Runtime.unlink "/sim/echo.sock");
  Sim.spawn sim ~name:"client" (fun () ->
      let fd = ops.Runtime.connect ~path:"/sim/echo.sock" in
      let pos = ref 0 in
      while !pos < String.length payload do
        match
          ops.Runtime.write_blocking fd payload ~off:!pos
            ~len:(String.length payload - !pos)
        with
        | `Wrote n -> pos := !pos + n
        | `Err e -> Alcotest.fail ("write: " ^ e)
      done;
      (* wait for the server's EOF so close ordering is quiescent *)
      let buf = Bytes.create 1 in
      (match ops.Runtime.read_blocking fd buf ~off:0 ~len:1 with
      | `Eof | `Err _ -> ()
      | `Data _ -> Alcotest.fail "unexpected data from echo server");
      ops.Runtime.close fd);
  (match Sim.run sim ~deadline:60. with
  | `Quiescent -> ()
  | `Deadline -> Alcotest.fail "net roundtrip did not quiesce");
  check_string "stream delivered intact" payload (Buffer.contents got);
  check_bool "delivery was fragmented" true ((Net.counters net).Net.chunks > 1);
  check_bool "no fd leaked" true (match Net.open_fds net with [] -> true | _ -> false);
  check_bool "socket unbound" true
    (not (Net.socket_bound net "/sim/echo.sock"))

let test_net_connect_refused () =
  let sim = Sim.create ~prng:(Prng.make ~seed:5) in
  let net = Net.create ~sim ~prng:(Prng.make ~seed:6) ~faults:false in
  let ops = Net.ops net in
  let refused = ref false in
  Sim.spawn sim ~name:"client" (fun () ->
      match ops.Runtime.connect ~path:"/sim/nobody.sock" with
      | _ -> ()
      | exception E.Error (E.Io_failure _) -> refused := true);
  (match Sim.run sim ~deadline:1. with
  | `Quiescent -> ()
  | `Deadline -> Alcotest.fail "expected quiescence");
  check_bool "connect to unbound path is refused" true !refused

(* ------------------------------------------------------------------ *)
(* whole-system runs *)

let scenario_fingerprint sc =
  Json.to_string (Harness.scenario_to_json sc)

let test_run_clean_and_bit_deterministic () =
  let sc =
    Harness.scenario ~seed:3 ~clients:4 ~requests:3 ~light:true ()
  in
  let o1 = Harness.run sc in
  let o2 = Harness.run sc in
  check_bool "no violations" true (match o1.Harness.violations with [] -> true | _ -> false);
  check_string "trace byte-identical across reruns" o1.Harness.trace
    o2.Harness.trace;
  check_string "digest stable" o1.Harness.digest o2.Harness.digest;
  (* the worker-pool size is invisible to the simulation *)
  let o4 = Harness.run { sc with Harness.jobs = 2 } in
  check_string "trace byte-identical at jobs 1 vs 2" o1.Harness.trace
    o4.Harness.trace;
  check_int "every request served" (4 * 3) o1.Harness.served

let test_run_full_mix_clean () =
  let sc = Harness.scenario ~seed:1 ~clients:3 ~requests:2 () in
  let o = Harness.run sc in
  (match o.Harness.violations with
  | [] -> ()
  | v :: _ -> Alcotest.fail ("unexpected violation: " ^ v));
  check_int "every request served" (3 * 2) o.Harness.served

let test_faults_oracles_hold_across_seeds () =
  for seed = 0 to 9 do
    let sc =
      Harness.scenario ~seed ~clients:3 ~requests:3 ~faults:true ~light:true
        ()
    in
    let o = Harness.run sc in
    match o.Harness.violations with
    | [] -> ()
    | v :: _ ->
        Alcotest.fail (Printf.sprintf "seed %d violated: %s" seed v)
  done

let test_fault_run_deterministic () =
  let sc =
    Harness.scenario ~seed:7 ~clients:4 ~requests:3 ~faults:true ~light:true
      ()
  in
  let o1 = Harness.run sc in
  let o2 = Harness.run sc in
  check_string "faulty run still byte-deterministic" o1.Harness.trace
    o2.Harness.trace

let test_injected_bug_found_shrunk_replayed () =
  let dir = temp_dir "dst-corpus" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sc =
    Harness.scenario ~seed:0 ~clients:8 ~requests:6 ~queue_cap:2
      ~inject:"drop-shed-response" ()
  in
  match Harness.search sc ~seeds:200 with
  | `Clean _ -> Alcotest.fail "injected bug not found within 200 seeds"
  | `Found (o, _) ->
      check_bool "outcome violates" true (Harness.failing o);
      let shrunk = Harness.shrink o in
      check_bool "shrunk outcome still violates" true (Harness.failing shrunk);
      let ssc = shrunk.Harness.scenario in
      check_bool "shrinking never grows the scenario" true
        (ssc.Harness.clients * ssc.Harness.requests
        <= o.Harness.scenario.Harness.clients
           * o.Harness.scenario.Harness.requests);
      let path = Harness.corpus_write ~dir shrunk in
      (match Harness.replay_file path with
      | Ok replayed ->
          check_bool "replay reproduces the violation" true
            (Harness.failing replayed)
      | Error msg -> Alcotest.fail ("replay failed: " ^ msg))

let test_scenario_json_roundtrip () =
  let sc =
    Harness.scenario ~seed:9 ~clients:5 ~requests:4 ~faults:true ~jobs:2
      ~queue_cap:3 ~light:true ~inject:"drop-shed-response" ()
  in
  match Harness.scenario_of_json (Harness.scenario_to_json sc) with
  | Ok sc' ->
      check_string "scenario roundtrips through JSON"
        (scenario_fingerprint sc) (scenario_fingerprint sc')
  | Error msg -> Alcotest.fail ("scenario did not parse back: " ^ msg)

(* ------------------------------------------------------------------ *)
(* the fuzz-catalogue extension *)

let test_invariant_registration_and_clean_case () =
  Harness.register_invariant ();
  let names = Search_check.Invariant.names () in
  check_bool "dst.whole_system registered" true
    (List.exists (String.equal "dst.whole_system") names);
  (* registration is idempotent by name *)
  Harness.register_invariant ();
  check_int "no duplicate after re-registration"
    (List.length names)
    (List.length (Search_check.Invariant.names ()));
  let case =
    {
      Search_check.Case.id = 0;
      m = 2;
      k = 3;
      f = 1;
      horizon = 100.;
      alpha_scale = 1.0;
      lambda_frac = 0.5;
      targets = [ (0, 10.) ];
      turn_seed = 12345;
    }
  in
  check_bool "whole-system invariant holds on a healthy case" true
    (match Harness.invariant_case case with [] -> true | _ -> false)

(* The full mix is the schedule behind serve_load's reference response
   digest; pin its bytes and its op counts so a change to the mix shows
   up here, not as an unexplained digest drift. *)
let test_full_mix_pinned () =
  let b = Buffer.create 65536 in
  let counts = Hashtbl.create 5 in
  let prng = ref (Prng.make ~seed:7) in
  for i = 0 to 999 do
    let req, p = Harness.gen_request ~light:false !prng in
    prng := p;
    Buffer.add_string b (P.encode_request ~id:i req);
    Buffer.add_char b '\n';
    let op =
      match req with
      | P.Bound _ -> "bound"
      | P.Certify _ -> "certify"
      | P.Simulate _ -> "simulate"
      | P.Sweep _ -> "sweep"
      | P.Stats -> "stats"
    in
    Hashtbl.replace counts op
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts op))
  done;
  check_string "encoded schedule digest" "8e4f71dcf6a64658fe380d153a2cbd98"
    (Digest.to_hex (Digest.string (Buffer.contents b)));
  List.iter
    (fun (op, n) ->
      check_int op n (Option.value ~default:0 (Hashtbl.find_opt counts op)))
    [
      ("bound", 477); ("certify", 195); ("simulate", 160); ("sweep", 111);
      ("stats", 57);
    ]

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "dst"
    [
      ( "sim",
        [
          tc "virtual clock and timer order" `Quick
            test_sim_clock_and_timer_order;
          tc "interleaving is a pure function of the seed" `Quick
            test_sim_seeded_interleaving;
          tc "crashes are captured; stuck fibers hit the deadline" `Quick
            test_sim_crash_capture_and_deadline;
        ] );
      ( "net",
        [
          tc "fragmented stream arrives intact, fds accounted" `Quick
            test_net_fragmented_roundtrip;
          tc "connect to unbound path is refused" `Quick
            test_net_connect_refused;
        ] );
      ( "harness",
        [
          tc "clean run, trace bit-identical across reruns and jobs" `Quick
            test_run_clean_and_bit_deterministic;
          tc "full workload mix is clean" `Quick test_run_full_mix_clean;
          tc "oracles hold across 10 faulty seeds" `Quick
            test_faults_oracles_hold_across_seeds;
          tc "faulty runs are byte-deterministic" `Quick
            test_fault_run_deterministic;
          tc "injected bug: found, shrunk, replayed" `Quick
            test_injected_bug_found_shrunk_replayed;
          tc "scenario JSON roundtrip" `Quick test_scenario_json_roundtrip;
          tc "full request mix is pinned (seed 7, 1000 requests)" `Quick
            test_full_mix_pinned;
        ] );
      ( "invariant",
        [
          tc "registers dst.whole_system; healthy case is clean" `Quick
            test_invariant_registration_and_clean_case;
        ] );
    ]
