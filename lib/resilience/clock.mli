(** Injectable time source.

    Every module that needs wall-clock time or a real sleep (today
    {!Lockfile}, for its age stamps and polling) takes a {!t} and
    defaults to {!unix}, so a test or the deterministic simulator
    ([lib/dst]) can run the same code against a virtual clock.  This module is the only sanctioned
    reader of the ambient clock outside designated observational sinks
    (see lint.allow); everything else must thread a {!t}. *)

type t = {
  now : unit -> float;  (** seconds; epoch-based for {!unix} *)
  sleep : float -> unit;  (** block (or simulate blocking) for that long *)
}

val unix : t
(** [Unix.gettimeofday] / [Unix.sleepf]. *)

val fixed : now:float -> t
(** A frozen clock: [now] always answers the given instant, [sleep]
    returns immediately.  For tests. *)
