(** The engine's event log: one record per local-clock advance.

    Every advance of a context's local clock — a compute burst, a memory
    stall, a barrier or lock wait, a scheduler wait, a synchronization
    protocol cost, idle padding — is one record
    [(ctx, core, cat, dur, end_ps, fn, line, pred)] in flat parallel int
    arrays.  {!Trace} (the Chrome timeline) and {!Critpath} (accounting,
    critical path) are views over one log; when both observe a run they
    share it.

    Invariants the views rely on:
    - records are in recording order, and [pred] and [prev] only ever
      point backwards, at retained records;
    - past [limit] records are counted as drops, never stored, so every
      retained record (and every edge between retained records) is
      visible to every view;
    - the per-context per-category totals count every record, retained
      or dropped, so the accounting stays exact past the cap. *)

(** {1 Categories} *)

type cat =
  | Compute
  | Mem_private
  | Mem_shared
  | Mem_mpb
  | Barrier_wait
  | Lock_wait
  | Sched_wait
      (** waiting for a core: ready-queue delay plus the context-switch
          penalty on shared cores *)
  | Sync
      (** synchronization protocol costs that are not waits on another
          context's progress: uncontended lock acquire/release, MPB flag
          set/read costs, join bookkeeping *)
  | Idle
      (** before a spawned context starts, and after a context finishes
          until the wall *)

val n_cats : int

val n_slice_cats : int
(** The first six categories, [Compute] to [Lock_wait], are the {e slice}
    categories: the intervals drawn as trace slices and charged to the
    profiler. *)

val all_cats : cat list
(** In index order. *)

val cat_index : cat -> int
(** Dense, [0 .. n_cats - 1], in declaration order. *)

val cat_of_index : int -> cat

val cat_name : cat -> string
(** ["compute"], ["mem-private"], ["mem-shared"], ["mem-mpb"],
    ["barrier-wait"], ["lock-wait"], ["sched-wait"], ["sync"], ["idle"]. *)

val is_slice : cat -> bool

(** {1 The log} *)

type t = private {
  limit : int;
  mutable e_ctx : int array;
  mutable e_core : int array;   (** -1 for idle padding *)
  mutable e_cat : int array;    (** {!cat_index} *)
  mutable e_dur : int array;
  mutable e_end : int array;
  mutable e_fn : int array;     (** {!Profile} function slot, 0 unprofiled *)
  mutable e_line : int array;   (** {!Profile} line slot, 0 unprofiled *)
  mutable e_pred : int array;   (** causal edge, -1 = program order only *)
  mutable e_prev : int array;   (** previous record of the same ctx, -1 *)
  mutable len : int;            (** retained records *)
  dropped : int array;          (** per {!cat_index} *)
  mutable last_ev : int array;  (** per ctx: latest retained record, -1 *)
  mutable fin : int array;      (** per ctx: latest [end_ps] *)
  mutable acct : int array;     (** [ctx * n_cats + cat] picoseconds *)
  mutable acct_n : int array;   (** [ctx * n_cats + cat] record counts *)
  mutable n_ctx : int;
}

val create : ?limit:int -> unit -> t
(** Records past [limit] (default 10{^6}) are counted in [dropped]
    instead of stored.  Nothing is allocated until the first record. *)

val record :
  t ->
  ctx:int ->
  core:int ->
  cat:cat ->
  dur:int ->
  end_ps:int ->
  fn:int ->
  line:int ->
  pred:int ->
  unit
(** One advance of [dur] ps ending at [end_ps]; [pred] is the record id
    the advance causally waited on ([-1] = program order only).
    Advances of [dur <= 0] are ignored. *)

val last_event : t -> ctx:int -> int
(** Latest retained record id of a context ([-1] if none) — the handle
    passed as [pred] for cross-context edges. *)

val cat_totals : t -> int array
(** Picoseconds per {!cat_index}, summed over contexts; exact past the
    cap. *)

val cat_counts : t -> int array
(** Records per {!cat_index}, retained or dropped. *)

val slices : t -> int
(** Retained records in the slice categories. *)

val dropped_slices : t -> int
