(** Whole-system deterministic simulation: the real daemon
    ({!Search_serve.Server}), real blocking clients
    ({!Search_serve.Client}), and the fault plan all run inside one
    single-seeded {!Sim} instance over the {!Net} fake network.

    A {!scenario} is a complete description of a run — seed, fleet
    shape, workload mix, fault switch, injected bug — and {!run} is a
    pure function of it: two runs of the same scenario produce
    byte-identical traces, and the seed alone replays an interleaving.

    Invariant oracles checked on every run:
    + every request reaches exactly one terminal outcome (a response,
      a bounded overload give-up, or a connection-level error) — never
      silence;
    + every computed response is byte-identical to a fresh reference
      evaluation of the same request (the Protocol determinism
      contract; [Stats]/[Overloaded] are observational and exempt);
    + shutdown always unbinds the socket path, closes every simulated
      fd, and terminates the server loop;
    + no fiber crashes, and the simulation reaches quiescence. *)

type scenario = {
  seed : int;
  clients : int;
  requests : int;  (** per client *)
  faults : bool;
  jobs : int;
  queue_cap : int;
  batch_cap : int;
  cache_cap : int;
  light : bool;  (** restrict the mix to cheap ops (fuzz-sized scenarios) *)
  inject : string option;  (** intentional server bug, to validate the oracles *)
}

val scenario :
  ?seed:int ->
  ?clients:int ->
  ?requests:int ->
  ?faults:bool ->
  ?jobs:int ->
  ?queue_cap:int ->
  ?batch_cap:int ->
  ?cache_cap:int ->
  ?light:bool ->
  ?inject:string ->
  unit ->
  scenario
(** Defaults: [seed 0], [clients 8], [requests 6], [faults false],
    [jobs 1], [queue_cap 8], [batch_cap 8], [cache_cap 64],
    [light false], no injection.
    @raise Search_numerics.Search_error.Error on non-positive sizes. *)

val gen_request :
  light:bool ->
  Search_numerics.Prng.t ->
  Search_serve.Protocol.request * Search_numerics.Prng.t
(** One request of the seeded workload mix.  [light false] is the full
    mix bench/serve_load.exe drives a live daemon with: ~50% bound
    queries over a small parameter pool (so the shared cache hits), 20%
    certify, 15% simulate, 10% sweep, 5% stats.  [light true] keeps to
    cheap ops for fuzz-sized scenarios: bound queries, stats and a rare
    8-sample simulation. *)

val scenario_to_json : scenario -> Search_numerics.Json.t
val scenario_of_json : Search_numerics.Json.t -> (scenario, string) result

val injections : string list
(** Known values for [inject] (currently ["drop-shed-response"]: the
    event loop silently swallows [Overloaded] response bytes, so shed
    clients hang — caught by the terminal-outcome oracle). *)

type outcome = {
  scenario : scenario;
  violations : string list;  (** empty iff every oracle held *)
  trace : string;
      (** virtual-time-stamped event log in execution order; the
          determinism witness — byte-identical across reruns *)
  digest : string;  (** over terminal response bytes, stats excluded *)
  served : int;
  overloaded_gaveup : int;
  conn_errors : int;
}

val run : scenario -> outcome

val failing : outcome -> bool

val search : scenario -> seeds:int -> [ `Clean of int | `Found of outcome * int ]
(** Run seeds [seed, seed+1, ...] until one fails or [seeds] runs stay
    clean.  [`Found (o, n)] reports the failing outcome and how many
    seeds were tried. *)

val shrink : ?budget:int -> outcome -> outcome
(** Greedy structural shrinking of a failing outcome: halve/decrement
    clients and requests, disable faults, lighten the mix, drop to one
    job — keeping any reduction that still fails, within [budget]
    (default 40) re-runs.  The result is still failing and replayable
    by its scenario alone. *)

val corpus_write : dir:string -> outcome -> string
(** Persist a replayable corpus entry [dst-<digest>.json] recording the
    scenario plus whether a violation is expected; returns the path. *)

val replay_file : string -> (outcome, string) result
(** Re-run a corpus entry and check the outcome class still matches its
    recorded [expect_violation]; [Error] describes a parse failure or a
    behaviour change. *)

val invariant_case : Search_check.Case.t -> string list
(** A fuzz-sized whole-system scenario derived from the case's
    [turn_seed] (2 clients x 2 light requests, faults on), run twice:
    reports oracle violations plus any trace divergence between the two
    runs (nondeterminism). *)

val register_invariant : unit -> unit
(** Register {!invariant_case} as ["dst.whole_system"] in the
    {!Search_check.Invariant} catalogue (idempotent by name). *)
