(** Execution tracing: the slice categories of an {!Evlog} (compute,
    memory stalls, barrier and lock waits), exportable as Chrome tracing
    JSON (chrome://tracing, Perfetto).  A trace holds no buffer of its
    own: it is a view over the log the engine writes, shared with a
    {!Critpath} when both observe a run. *)

type t

val create : ?limit:int -> unit -> t
(** Recording stops after [limit] log records (default 10^6); further
    records are counted in {!dropped}.  When a {!Critpath} observes the
    same run, the shared log's cap is the smaller of the two limits. *)

val log : t -> Evlog.t

val share_log : t -> Evlog.t -> unit
(** Make the trace a view over [log] (the engine does this when a
    critpath observes the same run). *)

val record :
  t -> ctx:int -> core:int -> start_ps:int -> end_ps:int -> Evlog.cat -> unit
(** Append one interval to the log.  Zero-length intervals are dropped
    (and not counted as drops). *)

val iter :
  t ->
  (ctx:int -> core:int -> start_ps:int -> end_ps:int -> Evlog.cat -> unit) ->
  unit
(** The retained slices, in recording order. *)

val length : t -> int
(** Retained slices. *)

val dropped : t -> int
(** Slices discarded because the log hit its cap. *)

val busy_by_kind : t -> ctx:int -> (Evlog.cat * int) list
(** Total retained slice picoseconds per category for one context
    (categories with no time are omitted). *)

val max_end_ps : t -> int
(** Latest slice end (0 when empty). *)

val to_chrome_events : t -> Obs.Chrome.event list
(** The slices as [Obs.Chrome] events (pid = core, tid = ctx, named
    after their category), for merging with compiler spans and profiler
    counter timelines in one trace file. *)

val write_chrome :
  ?profile:Profile.t -> ?critpath:Critpath.t -> t -> string -> string option
(** [write_chrome ?profile ?critpath tr path] merge-writes the run's
    timeline into [path] ({!Obs.Chrome.write_merge}): the slices, the
    profiler's counter tracks, and the critical path as flow arrows.
    Every arrow binds to a retained slice, since both views read the one
    log.  Returns a warning when the log truncated. *)
