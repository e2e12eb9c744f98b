(** Set-associative cache model with true LRU replacement.

    Only tags are modelled — the simulator tracks timing, not data.
    Write-back, write-allocate.

    The tag store is flat (one [int array] of tags, one of LRU stamps and
    a byte of dirty bits per line, indexed [set * assoc + way]) and is
    allocated on the first {!access_code}: {!create} records only the
    geometry, so a cache that is never touched costs a few words and
    reports [hits = misses = 0]. *)

type t

val create : size_bytes:int -> line_bytes:int -> assoc:int -> t
(** @raise Invalid_argument on inconsistent geometry. *)

val hit : int
val miss : int
val miss_evict_dirty : int

val access_code : t -> write:bool -> int -> int
(** Touch the line containing the byte address and fill it on a miss.
    Returns {!hit}, {!miss}, or {!miss_evict_dirty} (the victim was a
    dirty valid line).  The victim is the way with the oldest use; ties
    go to the lowest way.  Allocation-free after the first call. *)

val flush : t -> unit
(** Invalidate everything (e.g. at process start). *)

val hits : t -> int
val misses : t -> int
val hit_rate : t -> float
