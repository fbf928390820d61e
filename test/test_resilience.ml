(* Tests for the supervised execution runtime: the error taxonomy, the
   per-task step budgets, deterministic retry, chaos fault injection,
   the checkpoint journal, and the stale-lock-breaking file lock.  The
   load-bearing properties are (a) chaos is a pure function of (seed,
   task key), so a supervisor with enough retries reproduces the
   fault-free outputs exactly at every job count, and (b) a journal
   written by a killed run resumes to the same results. *)

module E = Search_numerics.Search_error
module Budget = Search_resilience.Budget
module Chaos = Search_resilience.Chaos
module Journal = Search_resilience.Journal
module Lockfile = Search_resilience.Lockfile
module Json = Search_numerics.Json
module Pool = Search_exec.Pool
module Supervise = Search_exec.Supervise

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Search_error *)

let sample_errors =
  [
    E.Invalid_input { where = "Formulas.mu"; what = "need 0 < k <= q" };
    E.Regime_violation { m = 3; k = 9; f = 1; what = "outside the regime" };
    E.Non_convergence { where = "Solve.bisect"; steps = 64; detail = "flat" };
    E.Budget_exceeded
      { task = "sweep/alpha-3"; resource = E.Steps; limit = 100.; spent = 101. };
    (* non-finite floats must survive the codec *)
    E.Budget_exceeded
      { task = "sweep/alpha-4"; resource = E.Steps; limit = infinity; spent = nan };
    E.Injected_fault { task = "fuzz/case-7"; attempt = 1; kind = "exception" };
    E.Worker_crash { task = "t"; attempt = 0; detail = "Stack_overflow" };
    E.Pool_closed { what = "task abandoned by Pool.shutdown" };
    E.Io_failure { path = "/tmp/x"; what = "ENOSPC" };
  ]

let test_error_json_roundtrip () =
  List.iter
    (fun e ->
      match E.of_json (E.to_json e) with
      | Ok e' ->
          check_string
            ("roundtrip " ^ E.tag e)
            (E.to_string e) (E.to_string e')
      | Error msg -> Alcotest.fail (E.tag e ^ ": of_json failed: " ^ msg))
    sample_errors;
  (* non-finite floats survive Json.to_string (which rejects raw
     non-finite numbers) *)
  List.iter
    (fun e -> ignore (Json.to_string (E.to_json e)))
    sample_errors

let test_error_tags_distinct () =
  let tags = List.map E.tag sample_errors |> List.sort_uniq String.compare in
  (* two Budget_exceeded samples share a tag, the rest are distinct *)
  check_int "eight distinct tags" 8 (List.length tags);
  List.iter
    (fun t ->
      check_bool ("kebab " ^ t) true
        (String.for_all
           (fun c -> (c >= 'a' && c <= 'z') || c = '-')
           t))
    tags

let test_error_classify () =
  let cls e = E.classify ~task:"t" ~attempt:2 e in
  (match cls (E.Error (E.Pool_closed { what = "x" })) with
  | E.Pool_closed _ -> ()
  | e -> Alcotest.fail ("Error kept: " ^ E.to_string e));
  (match cls (Invalid_argument "Formulas.mu: need 0 < k <= q") with
  | E.Invalid_input { where = "Formulas.mu"; what } ->
      check_string "split at colon" "need 0 < k <= q" what
  | e -> Alcotest.fail ("Invalid_argument: " ^ E.to_string e));
  (match cls Stack_overflow with
  | E.Worker_crash { attempt = 2; _ } -> ()
  | e -> Alcotest.fail ("fallthrough: " ^ E.to_string e));
  check_bool "injected retryable" true
    (E.retryable (E.Injected_fault { task = "t"; attempt = 0; kind = "x" }));
  check_bool "crash retryable" true
    (E.retryable (E.Worker_crash { task = "t"; attempt = 0; detail = "x" }));
  check_bool "invalid not retryable" false
    (E.retryable (E.Invalid_input { where = "w"; what = "x" }));
  check_bool "budget not retryable" false
    (E.retryable
       (E.Budget_exceeded
          { task = "t"; resource = E.Steps; limit = 1.; spent = 2. }))

(* ------------------------------------------------------------------ *)
(* Budget *)

let test_budget_step_limit () =
  let b = Budget.make ~steps:10 in
  let m = Budget.start b ~task:"steppy" in
  for _ = 1 to 10 do
    Budget.step m
  done;
  check_int "ten consumed" 10 (Budget.used m);
  (match Budget.step m with
  | () -> Alcotest.fail "eleventh step must raise"
  | exception E.Error (E.Budget_exceeded { task = "steppy"; resource = E.Steps; _ })
    -> ());
  (* cost-weighted steps hit the limit early *)
  let m2 = Budget.start b ~task:"bulk" in
  match Budget.step ~cost:11 m2 with
  | () -> Alcotest.fail "bulk step must raise"
  | exception E.Error (E.Budget_exceeded _) -> ()

let test_budget_unlimited_and_validation () =
  let m = Budget.start Budget.unlimited ~task:"free" in
  for _ = 1 to 10_000 do
    Budget.step m
  done;
  check_bool "unlimited spec" true (Budget.is_unlimited Budget.unlimited);
  check_bool "capped spec" false
    (Budget.is_unlimited (Budget.make ~steps:1));
  match Budget.make ~steps:0 with
  | _ -> Alcotest.fail "steps = 0 must be rejected"
  | exception E.Error (E.Invalid_input _) -> ()

(* ------------------------------------------------------------------ *)
(* Retry: the attempt loop inside Supervise.map *)

(* one item through a single-domain supervisor, counting its calls *)
let supervise_one ~attempts body =
  let calls = ref 0 in
  let result =
    Pool.with_pool ~jobs:1 (fun pool ->
        Supervise.map pool
          ~spec:{ Supervise.default with attempts }
          ~task:(fun _ _ -> "one")
          ~f:(fun _meter () ->
            incr calls;
            body !calls)
          [ () ])
  in
  (List.hd result, !calls)

let test_retry_recovers_and_reports () =
  let result, calls =
    supervise_one ~attempts:3 (fun call ->
        if call < 3 then
          E.raise_
            (E.Injected_fault { task = "one"; attempt = call - 1; kind = "x" })
        else call * 10)
  in
  (match result with
  | Ok v -> check_int "third attempt succeeded" 30 v
  | Error e -> Alcotest.fail (E.to_string e));
  check_int "three calls" 3 calls

let test_retry_does_not_retry_deterministic_failures () =
  let result, calls =
    supervise_one ~attempts:5 (fun _ -> E.invalid ~where:"det" "always wrong")
  in
  (match result with
  | Ok _ -> Alcotest.fail "must fail"
  | Error (E.Invalid_input _) -> ()
  | Error e -> Alcotest.fail (E.to_string e));
  check_int "exactly one call" 1 calls

let test_retry_exhausts_attempts () =
  let result, calls = supervise_one ~attempts:2 (fun _ -> failwith "doomed") in
  check_int "two calls" 2 calls;
  match result with
  | Ok _ -> Alcotest.fail "must fail"
  | Error (E.Worker_crash { attempt = 1; _ }) -> ()
  | Error e -> Alcotest.fail ("last failure kept: " ^ E.to_string e)

(* ------------------------------------------------------------------ *)
(* Chaos *)

let test_chaos_plan_deterministic () =
  let c = Chaos.make ~seed:42 () in
  let tasks = List.init 200 (Printf.sprintf "task-%d") in
  List.iter
    (fun t ->
      let p1 = Chaos.plan c ~task:t and p2 = Chaos.plan c ~task:t in
      check_bool ("stable plan for " ^ t) true (Chaos.plan_equal p1 p2);
      check_bool "faults within cap" true
        (p1.Chaos.faults >= 0 && p1.Chaos.faults <= Chaos.max_faults c);
      check_int "one kind per fault" p1.Chaos.faults
        (List.length p1.Chaos.kinds))
    tasks;
  (* the seed matters and the task key matters *)
  let other = Chaos.make ~seed:43 () in
  let differs =
    List.exists
      (fun t ->
        not (Chaos.plan_equal (Chaos.plan c ~task:t) (Chaos.plan other ~task:t)))
      tasks
  in
  check_bool "different seed gives different plans" true differs;
  let faulted =
    List.filter (fun t -> (Chaos.plan c ~task:t).Chaos.faults > 0) tasks
  in
  check_bool "some tasks faulted" true (List.length faulted > 0);
  check_bool "not every task faulted" true
    (List.length faulted < List.length tasks)

let test_chaos_run_schedule () =
  let c = Chaos.make ~seed:7 ~fault_rate:1.0 ~max_faults:3 () in
  let task = "always-faulty" in
  let plan = Chaos.plan c ~task in
  check_bool "fault_rate 1 means >= 1 fault" true (plan.Chaos.faults >= 1);
  for a = 0 to plan.Chaos.faults - 1 do
    match Chaos.run c ~task ~attempt:a (fun () -> `Ran) with
    | `Ran -> Alcotest.fail (Printf.sprintf "attempt %d must fault" a)
    | exception E.Error (E.Injected_fault { attempt; _ }) ->
        check_int "attempt recorded" a attempt
  done;
  match Chaos.run c ~task ~attempt:plan.Chaos.faults (fun () -> `Ran) with
  | `Ran -> ()
  | exception e ->
      Alcotest.fail ("post-fault attempt must run: " ^ Printexc.to_string e)

let test_chaos_disabled_is_free () =
  check_bool "disabled" false (Chaos.enabled Chaos.disabled);
  check_int "no faults" 0 (Chaos.max_faults Chaos.disabled);
  check_int "body runs" 5
    (Chaos.run Chaos.disabled ~task:"t" ~attempt:0 (fun () -> 5))

(* ------------------------------------------------------------------ *)
(* Supervise: chaos + retries reproduce the plain run at any job count *)

let test_supervised_map_chaos_identity () =
  let items = List.init 24 Fun.id in
  let f _meter i = Int64.bits_of_float (sqrt (float_of_int (i + 1))) in
  let task i _ = Printf.sprintf "drill/item-%d" i in
  let plain =
    Pool.with_pool ~jobs:1 (fun pool -> Supervise.map pool ~task ~f items)
  in
  let chaos = Chaos.make ~seed:42 () in
  let spec =
    {
      Supervise.default with
      chaos;
      attempts = Chaos.max_faults chaos + 1;
    }
  in
  List.iter
    (fun jobs ->
      let got =
        Pool.with_pool ~jobs (fun pool -> Supervise.map pool ~spec ~task ~f items)
      in
      let same =
        List.for_all2
          (fun a b ->
            match (a, b) with
            | Ok x, Ok y -> Int64.equal x y
            | _ -> false)
          plain got
      in
      check_bool
        (Printf.sprintf "chaos+retries == plain at jobs=%d" jobs)
        true same)
    [ 1; 4 ]

(* Chunked dispatch must not change anything observable: same results
   in the same order, same per-item chaos plans (task keys unchanged),
   at every chunk size — including chunks larger than the batch. *)
let test_supervised_map_chunk_identity () =
  let items = List.init 23 Fun.id in
  let f _meter i = (i * i) + 1 in
  let task i _ = Printf.sprintf "chunky/item-%d" i in
  let chaos = Chaos.make ~seed:7 () in
  let spec =
    {
      Supervise.default with
      chaos;
      attempts = Chaos.max_faults chaos + 1;
    }
  in
  let reference =
    Pool.with_pool ~jobs:1 (fun pool -> Supervise.map pool ~spec ~task ~f items)
  in
  List.iter
    (fun (jobs, chunk) ->
      let got =
        Pool.with_pool ~jobs (fun pool ->
            Supervise.map pool ~spec ~chunk ~task ~f items)
      in
      check_bool
        (Printf.sprintf "chunk=%d jobs=%d" chunk jobs)
        true
        (List.for_all2
           (fun a b ->
             match (a, b) with Ok x, Ok y -> x = y | _ -> false)
           reference got))
    [ (1, 2); (1, 16); (4, 3); (4, 64) ];
  Alcotest.check_raises "chunk must be positive"
    (Invalid_argument "Supervise.map: chunk must be >= 1") (fun () ->
      ignore
        (Pool.with_pool ~jobs:1 (fun pool ->
             Supervise.map pool ~chunk:0 ~task ~f items)))

(* A step budget turned on through the spec: items that step past it
   fail with Budget_exceeded and are not retried (the failure is
   deterministic), the rest succeed, the same at every jobs and chunk. *)
let test_supervised_map_step_budget () =
  let items = List.init 10 Fun.id in
  let task i _ = Printf.sprintf "budget/item-%d" i in
  let spec =
    { Supervise.default with budget = Budget.make ~steps:3; attempts = 3 }
  in
  List.iter
    (fun (jobs, chunk) ->
      let calls = Array.init 10 (fun _ -> Atomic.make 0) in
      let results =
        Pool.with_pool ~jobs (fun pool ->
            Supervise.map pool ~spec ~chunk ~task
              ~f:(fun meter i ->
                Atomic.incr calls.(i);
                for _ = 1 to i do
                  Budget.step meter
                done;
                i * i)
              items)
      in
      let label = Printf.sprintf "jobs=%d chunk=%d" jobs chunk in
      List.iteri
        (fun i r ->
          check_int (Printf.sprintf "%s item %d ran once" label i) 1
            (Atomic.get calls.(i));
          match r with
          | Ok v when i <= 3 -> check_int (label ^ " value") (i * i) v
          | Error
              (E.Budget_exceeded
                 { resource = E.Steps; limit = 3.; spent = 4.; task = key })
            when i > 3 ->
              check_string (label ^ " task key") (task i i) key
          | Ok _ | Error _ ->
              Alcotest.fail
                (Printf.sprintf "%s item %d: wrong outcome" label i))
        results)
    [ (1, 1); (1, 4); (4, 1); (4, 4) ]

let test_supervised_map_rejects_zero_attempts () =
  Alcotest.check_raises "attempts must be positive"
    (Invalid_argument "Supervise.map: attempts must be >= 1") (fun () ->
      ignore
        (Pool.with_pool ~jobs:1 (fun pool ->
             Supervise.map pool
               ~spec:{ Supervise.default with attempts = 0 }
               ~task:(fun i _ -> string_of_int i)
               ~f:(fun _ i -> i)
               [ 1; 2 ])))

let test_supervised_map_insufficient_retries_fail_closed () =
  (* with no retries, chaos-faulted items surface as Error, the rest
     still succeed — graceful degradation, not abort *)
  let items = List.init 50 Fun.id in
  let task i _ = Printf.sprintf "degrade/item-%d" i in
  let chaos = Chaos.make ~seed:11 () in
  let spec = { Supervise.default with chaos } in
  let results =
    Pool.with_pool ~jobs:2 (fun pool ->
        Supervise.map pool ~spec ~task ~f:(fun _ i -> i) items)
  in
  let errs =
    List.filter (function Error (E.Injected_fault _) -> true | _ -> false)
      results
  in
  let oks = List.filter Result.is_ok results in
  check_int "every item accounted for" 50
    (List.length errs + List.length oks);
  check_bool "some faults surfaced" true (List.length errs > 0);
  check_bool "some items unharmed" true (List.length oks > 0);
  (* and the partition is exactly the chaos plan *)
  List.iteri
    (fun i r ->
      let faulted = (Chaos.plan chaos ~task:(task i i)).Chaos.faults > 0 in
      check_bool
        (Printf.sprintf "item %d matches its plan" i)
        faulted (Result.is_error r))
    results

(* ------------------------------------------------------------------ *)
(* Journal *)

let journal_config = Json.Assoc [ ("run", Json.String "test") ]

let test_journal_roundtrip_and_resume () =
  let dir = temp_dir "journal" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let j = Journal.open_ ~dir ~config:journal_config in
  check_int "fresh journal is empty" 0 (Journal.entries j);
  Journal.record j ~key:"a" (Json.Number 1.);
  Journal.record j ~key:"b" (Json.String "two");
  Journal.record j ~key:"a" (Json.Number 3.) (* last write wins *);
  Journal.close j;
  (* same config resumes the same file *)
  let j2 = Journal.open_ ~dir ~config:journal_config in
  check_string "same path" (Journal.path j) (Journal.path j2);
  check_int "two keys" 2 (Journal.entries j2);
  (match Journal.find j2 "a" with
  | Some (Json.Number n) -> check_bool "last write wins" true (Float.equal n 3.)
  | _ -> Alcotest.fail "key a lost");
  (* a different config gets a different file *)
  let other =
    Journal.open_ ~dir ~config:(Json.Assoc [ ("run", Json.String "other") ])
  in
  check_bool "configs do not collide" true
    (not (String.equal (Journal.path j2) (Journal.path other)));
  check_int "other journal empty" 0 (Journal.entries other);
  Journal.finish other;
  (* finish deletes *)
  Journal.finish j2;
  check_bool "finish removed the file" false (Sys.file_exists (Journal.path j2))

let test_journal_tolerates_torn_tail () =
  let dir = temp_dir "torn" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let j = Journal.open_ ~dir ~config:journal_config in
  Journal.record j ~key:"done" (Json.Number 42.);
  Journal.close j;
  (* simulate a SIGKILL mid-write: append half a record *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 (Journal.path j)
  in
  output_string oc "{\"key\":\"torn\",\"val";
  close_out oc;
  let j2 = Journal.open_ ~dir ~config:journal_config in
  check_int "completed prefix survives" 1 (Journal.entries j2);
  check_bool "torn record dropped" true (Journal.find j2 "torn" = None);
  (match Journal.find j2 "done" with
  | Some (Json.Number n) -> check_bool "value intact" true (Float.equal n 42.)
  | _ -> Alcotest.fail "completed record lost");
  Journal.finish j2

let test_supervised_map_resumes_from_journal () =
  let dir = temp_dir "resume" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let items = List.init 10 Fun.id in
  let task i _ = Printf.sprintf "resume/item-%d" i in
  let persist () =
    {
      Supervise.journal = Journal.open_ ~dir ~config:journal_config;
      encode = (fun v -> Json.Number (float_of_int v));
      decode =
        (fun j ->
          match j with
          | Json.Number n -> Ok (int_of_float n)
          | _ -> Error "not a number");
    }
  in
  (* first (interrupted) run computes only half, then "dies": journal is
     closed, not finished *)
  let computed = Atomic.make 0 in
  let p1 = persist () in
  let first =
    Pool.with_pool ~jobs:1 (fun pool ->
        Supervise.map pool ~persist:p1 ~task
          ~f:(fun _ i ->
            Atomic.incr computed;
            if i >= 5 then failwith "killed" else i * i)
          items)
  in
  Journal.close p1.Supervise.journal;
  check_int "first run computed everything once" 10 (Atomic.get computed);
  check_int "five checkpoints"
    5
    (List.length (List.filter Result.is_ok first));
  (* the resumed run recomputes only the missing five *)
  Atomic.set computed 0;
  let p2 = persist () in
  let second =
    Pool.with_pool ~jobs:1 (fun pool ->
        Supervise.map pool ~persist:p2 ~task ~f:(fun _ i -> Atomic.incr computed; i * i) items)
  in
  Journal.finish p2.Supervise.journal;
  check_int "only the missing half recomputed" 5 (Atomic.get computed);
  check_bool "final results identical to an uninterrupted run" true
    (List.for_all2
       (fun i r -> match r with Ok v -> v = i * i | Error _ -> false)
       items second)

(* ------------------------------------------------------------------ *)
(* Lockfile *)

let test_lockfile_mutual_exclusion () =
  let dir = temp_dir "lock" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "x.lock" in
  let inside = ref false in
  let overlap = ref false in
  let worker () =
    Domain.spawn (fun () ->
        for _ = 1 to 25 do
          Lockfile.with_lock ~path (fun () ->
              if !inside then overlap := true;
              inside := true;
              ignore (Sys.opaque_identity (ref 0));
              inside := false)
        done)
  in
  let d1 = worker () and d2 = worker () in
  Domain.join d1;
  Domain.join d2;
  check_bool "critical sections never overlapped" false !overlap;
  check_bool "lock released at the end" false (Sys.file_exists path)

let test_lockfile_breaks_stale_lock () =
  let dir = temp_dir "stale" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "x.lock" in
  (* a lock held by a dead process: PID well beyond pid_max is never
     alive; creation time is recent, so only the dead-pid rule fires *)
  let oc = open_out path in
  Printf.fprintf oc "%d %.3f\n" 999_999_999 (Unix.gettimeofday ());
  close_out oc;
  let ran = ref false in
  Lockfile.with_lock ~path ~give_up_after:2. (fun () -> ran := true);
  check_bool "stale lock was broken, not waited out" true !ran;
  (* an unreadable (legacy/torn) lock file falls back to its mtime; an
     old one is broken too *)
  let oc = open_out path in
  output_string oc "not a pid stamp";
  close_out oc;
  let old = Unix.gettimeofday () -. 3600. in
  Unix.utimes path old old;
  let ran2 = ref false in
  Lockfile.with_lock ~path ~stale_after:60. ~give_up_after:2. (fun () ->
      ran2 := true);
  check_bool "ancient unreadable lock broken" true !ran2

(* the lock's timestamps, staleness test and contention sleep all go
   through an injectable clock: under a virtual clock, staleness and
   give-up behaviour are exact and instant *)
let test_lockfile_virtual_clock () =
  let dir = temp_dir "vclock" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "x.lock" in
  let vnow = ref 1000.0 in
  let sleeps = ref 0 in
  let clock =
    {
      Search_resilience.Clock.now = (fun () -> !vnow);
      sleep =
        (fun d ->
          incr sleeps;
          vnow := !vnow +. d);
    }
  in
  (* a lock held by a live process (ourselves) but stamped 900 virtual
     seconds ago: stale by age, broken without any waiting *)
  let oc = open_out path in
  Printf.fprintf oc "%d %.3f\n" (Unix.getpid ()) 100.0;
  close_out oc;
  let ran = ref false in
  Lockfile.with_lock ~clock ~stale_after:60. ~give_up_after:2. ~path
    (fun () -> ran := true);
  check_bool "virtually ancient lock broken instantly" true !ran;
  check_int "no contention sleep was needed" 0 !sleeps;
  (* a fresh lock held by a live process: contention burns virtual time
     only, and gives up with a structured error *)
  let oc = open_out path in
  Printf.fprintf oc "%d %.3f\n" (Unix.getpid ()) !vnow;
  close_out oc;
  (match
     Lockfile.with_lock ~clock ~stale_after:3600. ~give_up_after:2. ~path
       (fun () -> ())
   with
  | () -> Alcotest.fail "contended fresh lock must give up"
  | exception E.Error (E.Io_failure _) -> ());
  check_bool "waiting was virtual, not real" true (!sleeps > 0)

let test_lockfile_releases_on_exception () =
  let dir = temp_dir "raise" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "x.lock" in
  (match Lockfile.with_lock ~path (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception must propagate"
  | exception Failure _ -> ());
  check_bool "lock released after raise" false (Sys.file_exists path);
  (* and the path is immediately reusable *)
  Lockfile.with_lock ~path (fun () -> ())

(* ------------------------------------------------------------------ *)

let tc name speed fn = Alcotest.test_case name speed fn

let () =
  Alcotest.run "resilience"
    [
      ( "error",
        [
          tc "JSON roundtrip for every constructor" `Quick
            test_error_json_roundtrip;
          tc "tags are distinct kebab-case" `Quick test_error_tags_distinct;
          tc "classify folds exceptions into the taxonomy" `Quick
            test_error_classify;
        ] );
      ( "budget",
        [
          tc "step limit is exact" `Quick test_budget_step_limit;
          tc "unlimited budgets and validation" `Quick
            test_budget_unlimited_and_validation;
        ] );
      ( "retry",
        [
          tc "recovers from transient faults" `Quick
            test_retry_recovers_and_reports;
          tc "deterministic failures are not retried" `Quick
            test_retry_does_not_retry_deterministic_failures;
          tc "last failure is kept after exhaustion" `Quick
            test_retry_exhausts_attempts;
        ] );
      ( "chaos",
        [
          tc "plans are a pure function of (seed, task)" `Quick
            test_chaos_plan_deterministic;
          tc "attempts below the plan fault, then it runs" `Quick
            test_chaos_run_schedule;
          tc "disabled chaos is a no-op" `Quick test_chaos_disabled_is_free;
        ] );
      ( "supervise",
        [
          tc "chunked dispatch is observation-free" `Quick
            test_supervised_map_chunk_identity;
          tc "chaos + retries == plain run at jobs 1 and 4" `Quick
            test_supervised_map_chaos_identity;
          tc "without retries faults degrade per-item" `Quick
            test_supervised_map_insufficient_retries_fail_closed;
          tc "step budget fails closed, unretried, at any jobs/chunk" `Quick
            test_supervised_map_step_budget;
          tc "zero attempts is rejected" `Quick
            test_supervised_map_rejects_zero_attempts;
          tc "killed run resumes from the journal" `Quick
            test_supervised_map_resumes_from_journal;
        ] );
      ( "journal",
        [
          tc "record/resume/finish roundtrip" `Quick
            test_journal_roundtrip_and_resume;
          tc "torn trailing line is discarded" `Quick
            test_journal_tolerates_torn_tail;
        ] );
      ( "lockfile",
        [
          tc "mutual exclusion across domains" `Quick
            test_lockfile_mutual_exclusion;
          tc "stale locks are broken" `Quick test_lockfile_breaks_stale_lock;
          tc "virtual clock drives staleness and give-up" `Quick
            test_lockfile_virtual_clock;
          tc "released when the body raises" `Quick
            test_lockfile_releases_on_exception;
        ] );
    ]
