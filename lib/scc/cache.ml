(* Set-associative cache model with true LRU replacement.

   Only tags are modelled — the simulator tracks timing, not data (data
   lives in the workloads' native arrays).  Writes allocate (write-back,
   write-allocate, like the P54C L1D in WB mode); dirty-line writeback
   cost is charged by the caller via the [miss_evict_dirty] code.

   The tag store is flat: line [set * assoc + way] has its tag in [tags]
   (-1 = invalid), its LRU stamp in [last_use] and its dirty bit in
   [dirty].  The arrays are allocated on the first access, so a cache
   that a run never touches (most of the 48 per-core caches) costs only
   its geometry.  Arrays of this size go straight to the major heap:
   nothing is copied by a minor collection and there are no per-line
   pointers to scan. *)

(* [access_code] results *)
let hit = 0
let miss = 1
let miss_evict_dirty = 2

type t = {
  set_count : int;
  assoc : int;
  line_bytes : int;
  mutable tags : int array;      (* [||] until the first access *)
  mutable last_use : int array;
  mutable dirty : Bytes.t;
  mutable tick : int;            (* LRU clock *)
  mutable hits : int;
  mutable misses : int;
}

let create ~size_bytes ~line_bytes ~assoc =
  if size_bytes <= 0 || line_bytes <= 0 || assoc <= 0 then
    invalid_arg "Cache.create: non-positive geometry";
  let lines = size_bytes / line_bytes in
  if lines mod assoc <> 0 then
    invalid_arg "Cache.create: lines not divisible by associativity";
  {
    set_count = lines / assoc;
    assoc;
    line_bytes;
    tags = [||];
    last_use = [||];
    dirty = Bytes.empty;
    tick = 0;
    hits = 0;
    misses = 0;
  }

let materialize t =
  let n = t.set_count * t.assoc in
  t.tags <- Array.make n (-1);
  t.last_use <- Array.make n 0;
  t.dirty <- Bytes.make n '\000'

(* Allocation-free after the first call; used on the simulator's
   per-event hot path. *)
let access_code t ~write addr =
  if Array.length t.tags = 0 then materialize t;
  t.tick <- t.tick + 1;
  let la = addr / t.line_bytes in
  let base = la mod t.set_count * t.assoc in
  let tag = la / t.set_count in
  let tags = t.tags and last_use = t.last_use in
  let found = ref (-1) in
  for i = base to base + t.assoc - 1 do
    if tags.(i) = tag then found := i
  done;
  if !found >= 0 then begin
    last_use.(!found) <- t.tick;
    if write then Bytes.set t.dirty !found '\001';
    t.hits <- t.hits + 1;
    hit
  end
  else begin
    t.misses <- t.misses + 1;
    (* evict the least recently used way; ties go to the lowest way *)
    let victim = ref base in
    for i = base + 1 to base + t.assoc - 1 do
      if last_use.(i) < last_use.(!victim) then victim := i
    done;
    let v = !victim in
    let evicted_dirty = tags.(v) >= 0 && Bytes.get t.dirty v = '\001' in
    tags.(v) <- tag;
    Bytes.set t.dirty v (if write then '\001' else '\000');
    last_use.(v) <- t.tick;
    if evicted_dirty then miss_evict_dirty else miss
  end

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.last_use 0 (Array.length t.last_use) 0;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000'

let hits t = t.hits
let misses t = t.misses

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total
