(** Causal observability over the DES: the event-dependency graph, a
    full picosecond accounting, the critical path, and what-if speedup
    ceilings — views over the engine's {!Evlog}.

    The engine logs every local-clock advance exactly once — compute
    bursts, memory stalls (split private / shared DRAM / MPB), barrier
    waits with last-arriver edges, mutex waits with holder edges,
    scheduler slice waits, sync protocol costs, and idle padding — so
    that after {!finalize} the accounting identity

    {v sum over contexts and categories == wall ps * contexts v}

    holds {e exactly}; any gap means a missed (or double-charged)
    advance.  The log's per-category totals are plain integer adds and
    stay exact even when its buffer hits the cap (drops are counted,
    never silent).

    The critical path is extracted backward from the last event of the
    last-finishing context: follow the causal edge when the event has
    one, program order otherwise.  What-ifs replay the recorded
    accounting under counterfactuals and report {e ceilings} — removing
    a wait can reorder lock queues or shift barrier arrival order,
    which the replay deliberately ignores. *)

type t

val create : ?limit:int -> unit -> t
(** [limit] caps the event log (default 1_000_000 events); accounting
    stays exact past it.  When a {!Trace} observes the same run, the
    shared log's cap is the smaller of the two limits. *)

val log : t -> Evlog.t

val share_log : t -> Evlog.t -> unit
(** Read [log] from now on (the engine does this when a trace observes
    the same run). *)

(** {1 Recording (engine side)}

    The engine writes intervals to {!log}; the notes below feed the
    what-if and LBTS views. *)

val note_mesh : t -> ctx:int -> int -> unit
(** Mesh-hop picoseconds inside the context's current memory interval
    (feeds the zero-mesh what-if). *)

val set_machine :
  t -> cores:int -> cores_per_tile:int -> lookahead_ps:int -> unit
(** Attach the LBTS view to a machine: its core count, cores per tile
    and window width (one mesh hop, {!Mesh.min_hop_ps}).  The engine
    calls this at creation.  Machines of more than [Sys.int_size - 1]
    cores leave the view off. *)

val note_event : t -> core:int -> now:int -> unit
(** One scheduler event on [core] at local time [now], in event order.
    A window opens at the first event at or past the previous window's
    end and spans the lookahead; each window remembers which cores ran
    an event in it. *)

val finalize : t -> wall_ps:int -> mpb_line_ps:int -> unit
(** Record idle tails up to [wall_ps] (making the identity hold) and
    remember [mpb_line_ps], the nominal cost of one MPB line round
    trip, for the MPB-speed counterfactual.  Idempotent. *)

(** {1 Accounting} *)

val dropped : t -> int
val n_ctxs : t -> int
val wall_ps : t -> int
val account : t -> ctx:int -> cat:Evlog.cat -> int
val account_totals : t -> int array
(** Picoseconds per {!Evlog.cat_index}, summed over contexts. *)

val identity : t -> int * int
(** [(sum of every charged ps, wall_ps * contexts)] — equal after
    {!finalize}. *)

val identity_ok : t -> bool

(** {1 Critical path} *)

type step = {
  st_ctx : int;
  st_core : int;     (** -1 for idle padding *)
  st_cat : Evlog.cat;
  st_dur : int;
  st_end_ps : int;
  st_fn : int;
  st_line : int;
}

val critical_path : t -> step list
(** In execution order, ending at the last event of the last-finishing
    context.  Approximate when {!dropped} is non-zero (the walk bottoms
    out at the oldest recorded ancestor). *)

val path_span : step list -> int
val path_by_category : step list -> int array * int array
(** Picoseconds and steps per {!Evlog.cat_index}. *)

(** {1 What-if speedup ceilings} *)

type whatif = {
  wi_name : string;
  wi_desc : string;
  wi_removed_ps : int;
  wi_new_wall_ps : int;
  wi_ceiling : float;  (** old wall / new wall *)
}

val whatifs : t -> whatif list
(** zero-mesh, zero-lock-wait, zero-barrier-wait, MPB-speed shared
    DRAM, zero-sched-wait. *)

(** {1 LBTS parallelism ceiling} *)

type lookahead = {
  la_partitions : int;
  la_windows : int;             (** LBTS windows the run spanned *)
  la_windowed_ceiling : float;
      (** mean partitions with events per window: the speedup a
          conservative parallel executor with one-hop lookahead could
          extract *)
  la_infinite_ceiling : float;
      (** all events over the busiest partition's: one window spanning
          the whole run *)
  la_events : int array;        (** events per partition *)
}

val lookahead : ?parts:int -> t -> lookahead
(** The ceiling for [parts] contiguous core ranges (core [c] goes to
    partition [c * parts / cores]; clamped to the core count), computed
    from the windows recorded by {!note_event} — exactly what a
    scheduler partitioned that way would have measured, since window
    boundaries do not depend on the partitioning.  Without [parts], one
    partition per tile that ran any event.
    @raise Invalid_argument if [parts < 1]. *)

(** {1 Sinks} *)

val flow_events : ?flow_id:int -> ?max_end_ps:int -> t -> Obs.Chrome.event list
(** The critical path as one Perfetto flow chain (ph "s"/"t"/"f")
    bound to the trace slices (pid = core, tid = ctx).  Steps without a
    trace slice (idle, sched, sync) are skipped.  The path walks only
    retained log records, so against a {!Trace} over the same log every
    arrow lies inside a retained slice; [max_end_ps] additionally clips
    the chain at a time horizon.  The chain is always well-formed —
    first event ["s"], last ["f"], no dangling ids. *)

val register_metrics : t -> Obs.Registry.t -> unit
(** Register [sim_account_ps_total{category="..."}] labelled counters
    holding the accounting totals. *)

val render : ?profile:Profile.t -> t -> string
(** Accounting table + identity line, critical-path summary with the
    heaviest {e function/line/category} contributors, and the what-if
    ceiling table. *)

val to_json : ?profile:Profile.t -> t -> string
(** The full report as one JSON document (the [--explain-json]
    payload). *)
