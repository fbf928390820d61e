module Prng = Search_numerics.Prng
module Sweep = Search_numerics.Sweep
module P = Search_bounds.Params
module F = Search_bounds.Formulas
module World = Search_sim.World
module Engine = Search_sim.Engine
module Fault = Search_sim.Fault
module Trajectory = Search_sim.Trajectory
module Byz = Search_sim.Byzantine_sim
module Stochastic = Search_sim.Stochastic
module Adversary = Search_sim.Adversary
module Group = Search_strategy.Group
module Turning = Search_strategy.Turning
module Normalize = Search_strategy.Normalize
module Mray = Search_strategy.Mray_exponential
module Symmetric = Search_covering.Symmetric
module Orc = Search_covering.Orc
module Certificate = Search_covering.Certificate
module Pool = Search_exec.Pool
module Shard = Search_exec.Shard
module Supervise = Search_exec.Supervise
module Chaos = Search_resilience.Chaos
module E = Search_numerics.Search_error

type violation = { invariant : string; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s" v.invariant v.detail

(* Everything the invariants share, derived once per case. *)
type ctx = {
  case : Case.t;
  params : P.t;
  predicted_ratio : float;  (** of the optimal group at the case's base *)
  trajectories : Trajectory.t array;
  targets : World.point list;
  turns : Turning.t array;  (** the random turning group under test *)
  lambda : float;
  time_horizon : float;  (** generous horizon for detection queries *)
  cover_n : float;  (** coverage / certificate window *)
}

let make_ctx (case : Case.t) =
  let params = Case.params case in
  let group = Group.optimal ~alpha:(Gen.alpha case) params in
  let world = World.rays case.m in
  let bound = F.of_params params in
  {
    case;
    params;
    predicted_ratio = group.Group.predicted_ratio;
    trajectories = Group.trajectories group;
    targets =
      List.map (fun (ray, dist) -> World.point world ~ray ~dist) case.targets;
    turns = Gen.turning_group case;
    lambda = Float.max 1.01 (bound *. (0.6 +. (0.8 *. case.lambda_frac)));
    time_horizon = 4. *. bound *. case.horizon;
    cover_n = Float.min case.horizon 60.;
  }

let failf fmt = Format.kasprintf (fun s -> [ s ]) fmt
let to_inf = function None -> infinity | Some t -> t

let rel_close a b tol =
  Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* ------------------------------------------------------------------ *)
(* prng.smoke                                                          *)

let inv_prng ctx =
  let g = Prng.make ~seed:ctx.case.Case.turn_seed in
  let x, g' = Prng.float g in
  let range_probs =
    (if x >= 0. && x < 1. then [] else failf "float %.17g outside [0, 1)" x)
    @
    let i, _ = Prng.int ~bound:7 g' in
    if i >= 0 && i < 7 then [] else failf "int ~bound:7 drew %d" i
  in
  let draw g n =
    let rec go g n acc =
      if n = 0 then List.rev acc
      else
        let v, g = Prng.next_int64 g in
        go g (n - 1) (v :: acc)
    in
    go g n []
  in
  let left, right = Prng.split g in
  let xs = draw g 4 @ draw left 4 @ draw right 4 in
  let distinct = List.length (List.sort_uniq Int64.compare xs) in
  range_probs
  @
  if distinct = 12 then []
  else failf "parent/left/right streams collide: %d distinct of 12" distinct

(* ------------------------------------------------------------------ *)
(* engine.fixed_vs_worst                                               *)

(* All bool arrays of length [k] with exactly [f] set. *)
let assignments ~k ~f =
  let acc = ref [] in
  let arr = Array.make k false in
  let rec go idx remaining =
    if remaining = 0 then acc := Array.copy arr :: !acc
    else if idx < k && k - idx >= remaining then begin
      arr.(idx) <- true;
      go (idx + 1) (remaining - 1);
      arr.(idx) <- false;
      go (idx + 1) remaining
    end
  in
  go 0 f;
  List.rev !acc

let random_assignment ~k ~f g =
  let arr = Array.make k false in
  let rec place placed g =
    if Int.equal placed f then g
    else
      let r, g = Prng.int ~bound:k g in
      if arr.(r) then place placed g
      else begin
        arr.(r) <- true;
        place (placed + 1) g
      end
  in
  let g = place 0 g in
  (arr, g)

let inv_fixed_vs_worst ctx =
  let k = ctx.case.Case.k and f = ctx.case.Case.f in
  let all = assignments ~k ~f in
  (* exhaustive when feasible — always true for generated cases (k <= 6);
     the sampled fallback keeps hand-written corpus cases tractable *)
  let exhaustive = List.length all <= 1024 in
  let fixed_at target faulty =
    to_inf
      (Engine.detection_time_fixed ctx.trajectories
         ~assignment:(Fault.make Fault.Crash ~faulty)
         ~target ~horizon:ctx.time_horizon)
  in
  List.concat_map
    (fun target ->
      let worst =
        to_inf
          (Engine.detection_time_worst ctx.trajectories ~f ~target
             ~horizon:ctx.time_horizon)
      in
      if exhaustive then begin
        let fixed_max =
          List.fold_left
            (fun acc faulty -> Float.max acc (fixed_at target faulty))
            neg_infinity all
        in
        if Float.equal fixed_max worst then []
        else
          failf
            "target %a: worst %.17g <> max over all %d assignments %.17g"
            World.pp_point target worst (List.length all) fixed_max
      end
      else begin
        let sampled, _ =
          let rec go n g acc =
            if n = 0 then (acc, g)
            else
              let a, g = random_assignment ~k ~f g in
              go (n - 1) g (a :: acc)
          in
          go 200 (Prng.make ~seed:ctx.case.Case.turn_seed) []
        in
        let over =
          List.filter
            (fun faulty -> fixed_at target faulty > worst)
            sampled
        in
        let first_visits =
          Engine.first_visits ctx.trajectories ~target ~horizon:ctx.time_horizon
        in
        let adversarial =
          (Fault.worst_for_visits Fault.Crash ~first_visits ~f).Fault.faulty
        in
        (if over = [] then []
         else
           failf "target %a: %d sampled assignments exceed the worst case"
             World.pp_point target (List.length over))
        @
        let at_adv = fixed_at target adversarial in
        if Float.equal at_adv worst then []
        else
          failf "target %a: adversarial assignment gives %.17g, worst %.17g"
            World.pp_point target at_adv worst
      end)
    ctx.targets

(* ------------------------------------------------------------------ *)
(* engine.monotone_in_f                                                *)

let inv_monotone_in_f ctx =
  List.concat_map
    (fun target ->
      let time f' =
        to_inf
          (Engine.detection_time_worst ctx.trajectories ~f:f' ~target
             ~horizon:ctx.time_horizon)
      in
      let rec walk f' prev probs =
        if f' > ctx.case.Case.f then probs
        else
          let t = time f' in
          walk (f' + 1) t
            (probs
            @
            if t >= prev then []
            else
              failf "target %a: detection %.17g at f=%d < %.17g at f=%d"
                World.pp_point target t f' prev (f' - 1))
      in
      walk 1 (time 0) [])
    ctx.targets

(* ------------------------------------------------------------------ *)
(* byzantine.conservative_rule                                         *)

let inv_byzantine ctx =
  let f = ctx.case.Case.f in
  List.concat_map
    (fun target ->
      let byz =
        to_inf
          (Byz.worst_case_detection ctx.trajectories ~f ~target
             ~horizon:ctx.time_horizon)
      in
      let crash_2f =
        to_inf
          (Engine.detection_time_worst ctx.trajectories ~f:(2 * f) ~target
             ~horizon:ctx.time_horizon)
      in
      (if Float.equal byz crash_2f then []
       else
         failf "target %a: Byzantine worst %.17g <> crash worst with 2f %.17g"
           World.pp_point target byz crash_2f)
      @
      (* announcement level, with a valid lie schedule: faulty robots
         claim the origin at time 0 and (where possible) their actual
         mid-run position — never the true target, so the conservative
         rule must confirm exactly at the crash-2f time and never
         confirm a false place *)
      let first_visits =
        Engine.first_visits ctx.trajectories ~target ~horizon:ctx.time_horizon
      in
      let assignment = Fault.worst_for_visits Fault.Byzantine ~first_visits ~f in
      let lies =
        List.concat
          (List.mapi
             (fun r is_faulty ->
               if not is_faulty then []
               else
                 let l1 = { Byz.robot = r; place = World.origin; at_time = 0. } in
                 let t2 = 0.75 *. target.World.dist in
                 let p2 = Trajectory.position ctx.trajectories.(r) t2 in
                 if World.equal_point p2 target then [ l1 ]
                 else [ l1; { Byz.robot = r; place = p2; at_time = t2 } ])
             (Array.to_list assignment.Fault.faulty))
      in
      let res =
        Byz.run ctx.trajectories ~assignment ~lies ~target
          ~horizon:ctx.time_horizon
      in
      (match res.Byz.false_confirmation with
      | None -> []
      | Some (p, t) ->
          failf "target %a: false confirmation at %a, time %.17g"
            World.pp_point target World.pp_point p t)
      @
      let confirmed = to_inf res.Byz.confirmed_at in
      if Float.equal confirmed byz then []
      else
        failf "target %a: confirmed_at %.17g <> worst-case %.17g"
          World.pp_point target confirmed byz)
    ctx.targets

(* ------------------------------------------------------------------ *)
(* sim.ratio_within_design                                             *)

let inv_ratio ctx =
  let n = Float.min ctx.cover_n 40. in
  (* a far-from-optimal base can design ratios well above the scanner's
     default escape cap of 256; the cap must dominate the design or every
     legitimately-slow detection reads as an escape *)
  let ratio_cap =
    Float.max Adversary.default_ratio_cap (2. *. ctx.predicted_ratio)
  in
  let outcome =
    Adversary.worst_case ctx.trajectories ~f:ctx.case.Case.f ~ratio_cap ~n ()
  in
  (if outcome.Adversary.ratio >= 1. -. 1e-9 then []
   else failf "adversary ratio %.17g below 1" outcome.Adversary.ratio)
  @
  if outcome.Adversary.ratio <= ctx.predicted_ratio *. (1. +. 1e-6) then []
  else
    failf "adversary ratio %.17g exceeds the designed ratio %.17g (witness %a)"
      outcome.Adversary.ratio ctx.predicted_ratio World.pp_point
      outcome.Adversary.witness

(* ------------------------------------------------------------------ *)
(* strategy.coverage_theorem                                           *)

let inv_coverage_theorem ctx =
  let strat = Mray.make ~alpha:(Gen.alpha ctx.case) ctx.params in
  let q = P.q ctx.params and k = ctx.case.Case.k in
  (if Mray.coverage_theorem_holds strat then []
   else
     failf "assigned coverage multiplicity is not everywhere %d"
       (ctx.case.Case.f + 1))
  @
  let pr = Mray.predicted_ratio strat in
  let formula = F.exponential_ratio ~q ~k ~alpha:(Mray.alpha strat) in
  let l0 = F.lambda0 ~q ~k in
  (if rel_close pr formula 1e-9 then []
   else
     failf "strategy ratio %.17g <> closed-form appendix ratio %.17g" pr
       formula)
  @ (if pr >= l0 -. (1e-9 *. l0) then []
     else failf "strategy ratio %.17g below the lower bound %.17g" pr l0)
  @
  if (not (Float.equal ctx.case.Case.alpha_scale 1.)) || rel_close pr l0 1e-6
  then []
  else failf "optimal-base ratio %.17g <> lambda0 %.17g" pr l0

(* ------------------------------------------------------------------ *)
(* covering.cert_consistency                                           *)

let orc_intervals ctx ~n =
  Array.to_list ctx.turns
  |> List.concat_map (fun t ->
         List.map snd
           (Orc.cover_intervals_within t ~lambda:ctx.lambda ~within:(1., n)))

let line_intervals ctx ~n =
  Array.to_list ctx.turns
  |> List.concat_map (fun t ->
         List.map snd
           (Symmetric.cover_intervals_within t ~lambda:ctx.lambda
              ~within:(1., n)))

let cert_consistency name verdict ~intervals ~recheck ~demand ~n =
  match (verdict : Certificate.verdict) with
  | Certificate.Refuted_gap { at; multiplicity; demand = d } ->
      (if Int.equal d demand then []
       else failf "%s: verdict demand %d <> instance demand %d" name d demand)
      @ (if multiplicity < d then []
         else
           failf "%s: refutation multiplicity %d >= demand %d" name
             multiplicity d)
      @ (if at >= 1. && at <= n then []
         else failf "%s: witness %.17g outside [1, %g]" name at n)
      @
      let recount = Sweep.multiplicity_at at (intervals ()) in
      if Int.equal recount multiplicity then []
      else
        failf "%s: pointwise recount %d <> sweep multiplicity %d at %.17g"
          name recount multiplicity at
  | Certificate.Not_refuted { n = n'; _ } ->
      (match recheck ~n:n' with
      | Sweep.Covered -> []
      | Sweep.Gap { at; multiplicity; _ } ->
          failf "%s: verdict covers [1, %g] but recheck finds %d-fold point %.17g"
            name n' multiplicity at)
      @
      (* a sub-window of a covered window is covered *)
      let half = 1. +. ((n' -. 1.) /. 2.) in
      if half <= 1. then []
      else (
        match recheck ~n:half with
        | Sweep.Covered -> []
        | Sweep.Gap { at; _ } ->
            failf "%s: covered window [1, %g] has uncovered sub-window point %.17g"
              name n' at)
  | Certificate.Refuted_potential _ | Certificate.Inconclusive _ -> []

let inv_cert ctx =
  let q = P.q ctx.params and s = P.s ctx.params in
  let n = ctx.cover_n in
  let orc =
    cert_consistency "orc"
      (Certificate.check_orc ~turns:ctx.turns ~demand:q ~lambda:ctx.lambda ~n ())
      ~intervals:(fun () -> orc_intervals ctx ~n)
      ~recheck:(fun ~n -> Orc.check ctx.turns ~demand:q ~lambda:ctx.lambda ~n)
      ~demand:q ~n
  in
  let line =
    if ctx.case.Case.m = 2 && s >= 1 && s <= ctx.case.Case.k then
      cert_consistency "line"
        (Certificate.check_line ~turns:ctx.turns ~f:ctx.case.Case.f
           ~lambda:ctx.lambda ~n ())
        ~intervals:(fun () -> line_intervals ctx ~n)
        ~recheck:(fun ~n ->
          Symmetric.check ctx.turns ~demand:s ~lambda:ctx.lambda ~n)
        ~demand:s ~n
    else []
  in
  orc @ line

(* ------------------------------------------------------------------ *)
(* covering.profile_vs_pointwise                                       *)

let inv_profile ctx =
  let n = ctx.cover_n in
  let ivs = orc_intervals ctx ~n in
  let profile = Sweep.coverage_profile ~within:(1., n) ivs in
  let rec walk prev probs = function
    | [] ->
        if Float.equal prev n then probs
        else probs @ failf "profile stops at %.17g, not %g" prev n
    | (a, b, mult) :: rest ->
        let probs =
          probs
          @ (if Float.equal a prev then []
             else failf "profile pieces not contiguous: %.17g then %.17g" prev a)
          @ (if a < b then [] else failf "degenerate piece [%.17g, %.17g]" a b)
          @
          let mid = 0.5 *. (a +. b) in
          let recount = Sweep.multiplicity_at mid ivs in
          if Int.equal recount mult then []
          else
            failf "interior multiplicity %d at %.17g <> profile's %d" recount
              mid mult
        in
        walk b probs rest
  in
  (if profile = [] then failf "empty coverage profile over [1, %g]" n else [])
  @ walk 1. [] profile
  @
  let min_profile =
    List.fold_left (fun acc (_, _, m) -> Stdlib.min acc m) max_int profile
  in
  let min_sweep = Sweep.min_multiplicity ~within:(1., n) ivs in
  if profile <> [] && not (Int.equal min_sweep min_profile) then
    failf "min_multiplicity %d <> profile minimum %d" min_sweep min_profile
  else []

(* ------------------------------------------------------------------ *)
(* normalize.monotone_coverage                                         *)

let inv_normalize ctx =
  let t0 = ctx.turns.(0) in
  let mu = (ctx.lambda -. 1.) /. 2. in
  let n = Float.min ctx.cover_n 30. in
  let orc_part =
    match Normalize.fruitful_only_orc ~mu t0 with
    | exception E.Error (E.Non_convergence _) -> []
    | norm -> (
        try
          let before = Orc.max_covered [| t0 |] ~demand:1 ~lambda:ctx.lambda ~n in
          let after =
            Orc.max_covered [| norm |] ~demand:1 ~lambda:ctx.lambda ~n
          in
          (if after >= before -. 1e-9 then []
           else
             failf "normalisation lost coverage: %.17g before, %.17g after"
               before after)
          @
          (* kept turns are a subsequence of the original sequence *)
          let originals = Hashtbl.create 512 in
          for i = 1 to 512 do
            Hashtbl.replace originals (Turning.get t0 i) ()
          done;
          let rec subseq i probs =
            if i > 6 then probs
            else
              let v = Turning.get norm i in
              subseq (i + 1)
                (probs
                @
                if (not (Float.is_finite v)) || Hashtbl.mem originals v then []
                else
                  failf "normalised turn %d = %.17g is not an original turn" i v)
          in
          subseq 1 []
        with E.Error (E.Non_convergence _) -> [])
  in
  let line_part =
    match Normalize.fruitful_only_line ~mu t0 with
    | exception E.Error (E.Non_convergence _) -> []
    | nl -> (
        try
          if Turning.nondecreasing_prefix nl ~n:8 then []
          else failf "line normalisation is not nondecreasing"
        with E.Error (E.Non_convergence _) -> [])
  in
  orc_part @ line_part

(* ------------------------------------------------------------------ *)
(* stochastic.oracles                                                  *)

let inv_stochastic ctx =
  let f = ctx.case.Case.f in
  let h = ctx.time_horizon in
  let worst target =
    to_inf (Engine.detection_time_worst ctx.trajectories ~f ~target ~horizon:h)
  in
  let first = List.hd ctx.targets in
  let pm_probs =
    let e_pm =
      Stochastic.expected_detection_time ctx.trajectories ~f
        (Stochastic.point_mass first) ~horizon:h
    in
    let w = worst first in
    if Float.equal e_pm w then []
    else
      failf "point-mass expectation %.17g <> worst-case detection %.17g" e_pm w
  in
  let weight = 1. /. float_of_int (List.length ctx.targets) in
  let d = Stochastic.make (List.map (fun p -> (p, weight)) ctx.targets) in
  let ratios = List.map (fun p -> worst p /. p.World.dist) ctx.targets in
  let mx = List.fold_left Float.max neg_infinity ratios in
  let mn = List.fold_left Float.min infinity ratios in
  let bq = Stochastic.beck_quotient ctx.trajectories ~f d ~horizon:h in
  pm_probs
  @ (if bq <= (mx *. (1. +. 1e-9)) +. 1e-9 then []
     else failf "Beck quotient %.17g above max pointwise ratio %.17g" bq mx)
  @
  if (not (Float.is_finite bq)) || bq >= (mn *. (1. -. 1e-9)) -. 1e-9 then []
  else failf "Beck quotient %.17g below min pointwise ratio %.17g" bq mn

(* ------------------------------------------------------------------ *)
(* exec.jobs_invariance                                                *)

let inv_exec ctx =
  let items = List.init 8 Fun.id in
  let world = World.rays ctx.case.Case.m in
  let compute jobs =
    Pool.with_pool ~jobs @@ fun pool ->
    Shard.sharded_map pool
      ~root:(Prng.make ~seed:ctx.case.Case.turn_seed)
      items
      ~f:(fun ~prng i ->
        let dist, prng =
          Prng.float_range ~lo:1. ~hi:(Float.max 2. ctx.case.Case.horizon) prng
        in
        let ray, _ = Prng.int ~bound:ctx.case.Case.m prng in
        let target = World.point world ~ray ~dist in
        let t =
          to_inf
            (Engine.detection_time_worst ctx.trajectories ~f:ctx.case.Case.f
               ~target ~horizon:ctx.time_horizon)
        in
        (t /. dist) +. float_of_int i)
  in
  let bits = List.map Int64.bits_of_float in
  if List.equal Int64.equal (bits (compute 1)) (bits (compute 3)) then []
  else failf "sharded map differs between pool sizes 1 and 3"

(* ------------------------------------------------------------------ *)
(* chaos.determinism                                                   *)

(* The chaos plan must be a pure function of (seed, task key): same key,
   same plan, at any time and in any domain; distinct attempts below the
   fault count raise, the first attempt at the fault count succeeds. *)
let inv_chaos_determinism ctx =
  let seed = ctx.case.Case.turn_seed in
  let chaos = Chaos.make ~seed () in
  let tasks =
    List.init 6 (fun i -> Printf.sprintf "chaos-probe/%d-%d" ctx.case.Case.id i)
  in
  List.concat_map
    (fun task ->
      let p1 = Chaos.plan chaos ~task in
      let p2 = Chaos.plan chaos ~task in
      if not (Chaos.plan_equal p1 p2) then
        failf "plan for %s not deterministic" task
      else if p1.Chaos.faults > Chaos.max_faults chaos then
        failf "plan for %s exceeds max_faults" task
      else
        let outcome attempt =
          match Chaos.run chaos ~task ~attempt (fun () -> `Ran) with
          | `Ran -> `Ran
          | exception E.Error (E.Injected_fault _) -> `Faulted
          | exception e ->
              `Other (Printexc.to_string e)
        in
        let bad_fault =
          List.exists
            (fun a ->
              match outcome a with `Faulted -> false | _ -> true)
            (List.init p1.Chaos.faults Fun.id)
        in
        if bad_fault then
          failf "%s: attempts below the fault count must fault" task
        else
          match outcome p1.Chaos.faults with
          | `Ran -> []
          | `Faulted -> failf "%s: attempt %d still faulted" task p1.Chaos.faults
          | `Other e -> failf "%s: unexpected %s" task e)
    tasks

(* ------------------------------------------------------------------ *)
(* chaos.supervisor_recovers                                           *)

(* Dogfood the supervised runtime: under fault injection, a retry policy
   with more attempts than [Chaos.max_faults] must reproduce the
   fault-free results exactly, at any pool size. *)
let inv_chaos_supervisor ctx =
  let seed = ctx.case.Case.turn_seed in
  let chaos = Chaos.make ~seed () in
  let items = List.init 6 Fun.id in
  let pure i =
    Int64.bits_of_float (float_of_int (i + ctx.case.Case.k) *. ctx.lambda)
  in
  let f _meter i = pure i in
  let task i _ = Printf.sprintf "chaos-sup/%d-%d" ctx.case.Case.id i in
  let supervised jobs =
    Pool.with_pool ~jobs @@ fun pool ->
    Supervise.map pool
      ~spec:
        {
          Supervise.default with
          chaos;
          attempts = Chaos.max_faults chaos + 1;
        }
      ~task ~f items
  in
  let plain = List.map (fun i -> Ok (pure i)) items in
  let eq =
    List.equal (fun a b ->
        match (a, b) with
        | Ok x, Ok y -> Int64.equal x y
        | Error _, _ | _, Error _ -> false)
  in
  if not (eq (supervised 1) plain) then
    failf "supervised map under chaos differs from plain map at jobs=1"
  else if not (eq (supervised 3) plain) then
    failf "supervised map under chaos differs from plain map at jobs=3"
  else []

(* ------------------------------------------------------------------ *)
(* analysis.self_clean                                                 *)

(* The lint verdict is a property of the source tree, not of the case,
   so it is computed once per process (the findings are deterministic,
   so every case reports the same list).  Every rule family runs, over
   the artefacts of the build tree next to the sources: a source with
   no up-to-date artefact is itself a violation.  When the sources or
   the build tree are not reachable from the working directory — an
   installed binary, a sandboxed runner — there is nothing to read and
   the invariant is vacuously satisfied. *)
let lint_repo_root () =
  let looks_like_root dir =
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "lint.allow")
    && Sys.file_exists (Filename.concat dir "lib")
  in
  let rec up dir depth =
    if depth > 8 then None
    else if looks_like_root dir then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent (depth + 1)
  in
  up (Sys.getcwd ()) 0

let lint_violations =
  lazy
    (match lint_repo_root () with
    | None -> []
    | Some root
      when String.equal (Search_analysis.Cmt_loader.build_dir ~root) root ->
        []
    | Some root -> (
        let module D = Search_analysis.Driver in
        match
          Result.bind (D.load_allow ~root) (fun allow ->
              Result.map (fun budget -> (allow, budget)) (D.load_budget ~root))
        with
        | Error msg -> failf "lint.allow/lint.budget unreadable: %s" msg
        | Ok (allow, budget) ->
            let out = D.run ~jobs:1 ~allow ~budget ~root () in
            List.map
              (Format.asprintf "%a" Search_analysis.Finding.pp)
              out.D.findings))

(* [Lazy.force] from concurrently checking domains can raise [RacyLazy];
   serialize the one-time computation. *)
let lint_force_mutex = Mutex.create ()

let inv_analysis _ctx =
  Mutex.protect lint_force_mutex (fun () -> Lazy.force lint_violations)

(* ------------------------------------------------------------------ *)

let catalogue : (string * (ctx -> string list)) list =
  [
    ("prng.smoke", inv_prng);
    ("engine.fixed_vs_worst", inv_fixed_vs_worst);
    ("engine.monotone_in_f", inv_monotone_in_f);
    ("byzantine.conservative_rule", inv_byzantine);
    ("sim.ratio_within_design", inv_ratio);
    ("strategy.coverage_theorem", inv_coverage_theorem);
    ("covering.cert_consistency", inv_cert);
    ("covering.profile_vs_pointwise", inv_profile);
    ("normalize.monotone_coverage", inv_normalize);
    ("stochastic.oracles", inv_stochastic);
    ("exec.jobs_invariance", inv_exec);
    ("chaos.determinism", inv_chaos_determinism);
    ("chaos.supervisor_recovers", inv_chaos_supervisor);
    ("analysis.self_clean", inv_analysis);
  ]

(* Extension registry: layers above [search_check] in the dependency
   graph (the deterministic simulator pulls in [search_serve], which
   pulls in [faulty_search], which links this library — a cycle if the
   catalogue referenced them directly) register whole-system invariants
   here at startup.  Extensions take the raw case rather than a [ctx]
   and are evaluated after the catalogue, sorted by name, so the
   violation list stays a pure function of (case, registered set). *)
let extensions : (string * (Case.t -> string list)) list Atomic.t =
  Atomic.make []

let register ~name run =
  let rec swap () =
    let cur = Atomic.get extensions in
    let without = List.filter (fun (n, _) -> not (String.equal n name)) cur in
    if not (Atomic.compare_and_set extensions cur ((name, run) :: without))
    then swap ()
  in
  swap ()

let sorted_extensions () =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Atomic.get extensions)

let names () =
  List.map fst catalogue @ List.map fst (sorted_extensions ())

let run_entry ~invariant details_or_exn =
  match details_or_exn () with
  | details -> List.map (fun detail -> { invariant; detail }) details
  | exception e ->
      [
        {
          invariant;
          detail = Printf.sprintf "raised %s" (Printexc.to_string e);
        };
      ]

let check_case case =
  match Case.validate case with
  | Error msg -> [ { invariant = "case.valid"; detail = msg } ]
  | Ok () -> (
      match make_ctx case with
      | exception e ->
          [
            {
              invariant = "case.context";
              detail =
                Printf.sprintf "building the context raised %s"
                  (Printexc.to_string e);
            };
          ]
      | ctx ->
          List.concat_map
            (fun (invariant, run) ->
              run_entry ~invariant (fun () -> run ctx))
            catalogue
          @ List.concat_map
              (fun (invariant, run) ->
                run_entry ~invariant (fun () -> run case))
              (sorted_extensions ()))
