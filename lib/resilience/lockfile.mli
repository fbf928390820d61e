(** Crash-safe advisory file locks with stale-lock recovery.

    The lock is the classic [O_CREAT | O_EXCL] sentinel file, but its
    contents record the holder's PID and creation time so a later process
    can recover from a holder that died without unlinking: a lock is
    *stale* — and gets broken — when its PID is no longer alive, or when
    it is older than [stale_after] (covers PID reuse and unreadable
    files).  This replaces the bare [Unix.lockf] scheme whose sentinel
    files survived kills and wedged every subsequent run.

    Locks serialise short critical sections (a corpus write); waiting
    is bounded and gives up with [Io_failure] rather than hanging
    forever. *)

val with_lock :
  ?clock:Clock.t ->
  ?stale_after:float ->
  ?give_up_after:float ->
  path:string ->
  (unit -> 'a) ->
  'a
(** [with_lock ~path f] acquires [path], runs [f], and unlinks the lock
    even when [f] raises.  Contended acquisition polls at 10 ms; locks
    whose holder is dead or older than [stale_after] (default 60 s) are
    broken.  [clock] (default {!Clock.unix}) supplies the creation
    timestamp, the staleness "now", and the contention sleep.
    @raise Search_numerics.Search_error.Error with [Io_failure] after
    [give_up_after] (default 30 s) of waiting. *)
