(* The engine's event log (see evlog.mli): flat parallel int arrays, one
   slot per retained record, grown by doubling up to the cap.  Recording
   is a handful of array stores; the per-context per-category totals are
   plain adds that never stop, so accounting stays exact when the
   buffer is full. *)

type cat =
  | Compute
  | Mem_private
  | Mem_shared
  | Mem_mpb
  | Barrier_wait
  | Lock_wait
  | Sched_wait
  | Sync
  | Idle

let n_cats = 9
let n_slice_cats = 6

let cats =
  [| Compute; Mem_private; Mem_shared; Mem_mpb; Barrier_wait; Lock_wait;
     Sched_wait; Sync; Idle |]

let all_cats = Array.to_list cats
let cat_of_index i = cats.(i)

let cat_index = function
  | Compute -> 0
  | Mem_private -> 1
  | Mem_shared -> 2
  | Mem_mpb -> 3
  | Barrier_wait -> 4
  | Lock_wait -> 5
  | Sched_wait -> 6
  | Sync -> 7
  | Idle -> 8

let cat_name = function
  | Compute -> "compute"
  | Mem_private -> "mem-private"
  | Mem_shared -> "mem-shared"
  | Mem_mpb -> "mem-mpb"
  | Barrier_wait -> "barrier-wait"
  | Lock_wait -> "lock-wait"
  | Sched_wait -> "sched-wait"
  | Sync -> "sync"
  | Idle -> "idle"

let is_slice c = cat_index c < n_slice_cats

type t = {
  limit : int;
  mutable e_ctx : int array;
  mutable e_core : int array;
  mutable e_cat : int array;
  mutable e_dur : int array;
  mutable e_end : int array;
  mutable e_fn : int array;
  mutable e_line : int array;
  mutable e_pred : int array;
  mutable e_prev : int array;
  mutable len : int;
  dropped : int array;
  mutable last_ev : int array;
  mutable fin : int array;
  mutable acct : int array;
  mutable acct_n : int array;
  mutable n_ctx : int;
}

let create ?(limit = 1_000_000) () =
  {
    limit;
    e_ctx = [||]; e_core = [||]; e_cat = [||]; e_dur = [||]; e_end = [||];
    e_fn = [||]; e_line = [||]; e_pred = [||]; e_prev = [||];
    len = 0;
    dropped = Array.make n_cats 0;
    last_ev = [||];
    fin = [||];
    acct = [||];
    acct_n = [||];
    n_ctx = 0;
  }

let grow ?(cap = max_int) a n fill =
  let old = Array.length a in
  if n <= old then a
  else begin
    let bigger = Array.make (min cap (max n (2 * max 1024 old))) fill in
    Array.blit a 0 bigger 0 old;
    bigger
  end

let ensure_ctx t ctx =
  if ctx >= t.n_ctx then begin
    let n = ctx + 1 in
    t.last_ev <- grow t.last_ev n (-1);
    t.fin <- grow t.fin n 0;
    t.acct <- grow t.acct (n * n_cats) 0;
    t.acct_n <- grow t.acct_n (n * n_cats) 0;
    t.n_ctx <- n
  end

let record t ~ctx ~core ~cat ~dur ~end_ps ~fn ~line ~pred =
  if dur > 0 then begin
    ensure_ctx t ctx;
    let c = cat_index cat in
    let k = (ctx * n_cats) + c in
    t.acct.(k) <- t.acct.(k) + dur;
    t.acct_n.(k) <- t.acct_n.(k) + 1;
    if end_ps > t.fin.(ctx) then t.fin.(ctx) <- end_ps;
    if t.len >= t.limit then t.dropped.(c) <- t.dropped.(c) + 1
    else begin
      let i = t.len in
      if i = Array.length t.e_ctx then begin
        let grow a = grow ~cap:t.limit a (i + 1) 0 in
        t.e_ctx <- grow t.e_ctx;
        t.e_core <- grow t.e_core;
        t.e_cat <- grow t.e_cat;
        t.e_dur <- grow t.e_dur;
        t.e_end <- grow t.e_end;
        t.e_fn <- grow t.e_fn;
        t.e_line <- grow t.e_line;
        t.e_pred <- grow t.e_pred;
        t.e_prev <- grow t.e_prev
      end;
      t.e_ctx.(i) <- ctx;
      t.e_core.(i) <- core;
      t.e_cat.(i) <- c;
      t.e_dur.(i) <- dur;
      t.e_end.(i) <- end_ps;
      t.e_fn.(i) <- fn;
      t.e_line.(i) <- line;
      t.e_pred.(i) <- (if pred >= 0 && pred < i then pred else -1);
      t.e_prev.(i) <- t.last_ev.(ctx);
      t.last_ev.(ctx) <- i;
      t.len <- i + 1
    end
  end

let last_event t ~ctx = if ctx < t.n_ctx then t.last_ev.(ctx) else -1

let sum_over_ctxs t per_ctx =
  let acc = Array.make n_cats 0 in
  for k = 0 to (t.n_ctx * n_cats) - 1 do
    acc.(k mod n_cats) <- acc.(k mod n_cats) + per_ctx.(k)
  done;
  acc

let cat_totals t = sum_over_ctxs t t.acct
let cat_counts t = sum_over_ctxs t t.acct_n

let sum_slices a = Array.fold_left ( + ) 0 (Array.sub a 0 n_slice_cats)

(* every slice record was either retained or dropped *)
let slices t = sum_slices (cat_counts t) - sum_slices t.dropped
let dropped_slices t = sum_slices t.dropped
