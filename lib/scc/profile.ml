(* Simulated-time source profiler (see profile.mli).

   Everything on the charging path is allocation-free: function and line
   names are interned once to integer slots, per-context frame stacks
   are growable int arrays, and a charge is a handful of array stores.
   Inclusive time uses the push-mark technique: entering a frame
   snapshots the context's total attributed picoseconds, and the pop
   adds the difference — recursive re-entries are marked and skipped, so
   a self-recursive function is not double counted. *)

type t = {
  (* function slots *)
  mutable fn_names : string array;
  fn_tbl : (string, int) Hashtbl.t;
  mutable n_fns : int;
  mutable flat : int array array;   (* [cat].[slot], slice categories *)
  mutable incl : int array;         (* [slot] *)
  mutable calls : int array;        (* [slot] *)
  (* line slots *)
  mutable line_names : string array;
  line_tbl : (string, int) Hashtbl.t;
  mutable n_lines : int;
  mutable line_ps : int array;
  (* per-context state *)
  mutable stacks : int array array;  (* [ctx]: slot stack *)
  mutable marks : int array array;   (* [ctx]: attr snapshot per frame; -1 = recursive *)
  mutable depths : int array;
  mutable onstack : int array array; (* [ctx].[slot]: occurrences on the stack *)
  mutable cur_line : int array;
  mutable attr : int array;          (* [ctx]: total attributed ps *)
  mutable n_ctx : int;
  (* locks, keyed by engine lock id *)
  mutable lock_names : string array;
  mutable lock_acqs : int array;
  mutable lock_contended : int array;
  mutable lock_wait : int array;
  mutable lock_max_wait : int array;
  mutable lock_max_holder : int array;
  mutable n_locks : int;
  (* barriers, keyed by barrier id (-1 = the global barrier) *)
  barrier_tbl : (int, barrier_cell) Hashtbl.t;
  (* sampled timelines, reverse recording order *)
  mutable samples : (int * string * (string * float) list) list;
  mutable n_samples : int;
  interval_ps : int;
  (* aggregate metrics *)
  reg : Obs.Registry.t;
  kind_ctr : Obs.Counter.t array;    (* attributed ps per slice category *)
  lock_acq_ctr : Obs.Counter.t;
  lock_contended_ctr : Obs.Counter.t;
  lock_wait_hist : Obs.Histogram.t;
  barrier_ctr : Obs.Counter.t;
  barrier_spread_hist : Obs.Histogram.t;
}

and barrier_cell = {
  mutable bc_episodes : int;
  mutable bc_total_spread : int;
  mutable bc_max_spread : int;
}

let wait_bounds = [| 1_000; 10_000; 100_000; 1_000_000; 10_000_000 |]

let create ?(sample_interval_ps = 1_000_000) () =
  if sample_interval_ps <= 0 then
    invalid_arg "Profile.create: sample interval must be positive";
  let reg = Obs.Registry.create () in
  (* one family per slice category: mem-private -> sim_mem_private_ps_total *)
  let kind_ctr =
    Array.init Evlog.n_slice_cats (fun i ->
        let name = Evlog.cat_name (Evlog.cat_of_index i) in
        Obs.Registry.counter reg
          ~help:("simulated picoseconds attributed to " ^ name)
          ("sim_"
          ^ String.map (function '-' -> '_' | c -> c) name
          ^ "_ps_total"))
  in
  let t =
    {
      fn_names = Array.make 16 "";
      fn_tbl = Hashtbl.create 16;
      n_fns = 0;
      flat = Array.init Evlog.n_slice_cats (fun _ -> Array.make 16 0);
      incl = Array.make 16 0;
      calls = Array.make 16 0;
      line_names = Array.make 64 "";
      line_tbl = Hashtbl.create 64;
      n_lines = 0;
      line_ps = Array.make 64 0;
      stacks = [||];
      marks = [||];
      depths = [||];
      onstack = [||];
      cur_line = [||];
      attr = [||];
      n_ctx = 0;
      lock_names = Array.make 8 "";
      lock_acqs = Array.make 8 0;
      lock_contended = Array.make 8 0;
      lock_wait = Array.make 8 0;
      lock_max_wait = Array.make 8 0;
      lock_max_holder = Array.make 8 (-1);
      n_locks = 0;
      barrier_tbl = Hashtbl.create 8;
      samples = [];
      n_samples = 0;
      interval_ps = sample_interval_ps;
      reg;
      kind_ctr;
      lock_acq_ctr =
        Obs.Registry.counter reg ~help:"lock acquisitions"
          "sim_lock_acquisitions_total";
      lock_contended_ctr =
        Obs.Registry.counter reg ~help:"lock acquisitions that waited"
          "sim_lock_contended_total";
      lock_wait_hist =
        Obs.Registry.histogram reg ~help:"per-acquisition lock wait (ps)"
          ~bounds:wait_bounds "sim_lock_wait_ps";
      barrier_ctr =
        Obs.Registry.counter reg ~help:"completed barrier episodes"
          "sim_barrier_episodes_total";
      barrier_spread_hist =
        Obs.Registry.histogram reg
          ~help:"per-episode barrier arrival spread (ps)" ~bounds:wait_bounds
          "sim_barrier_spread_ps";
    }
  in
  (* slot 0: time charged while a context's frame stack is empty *)
  Hashtbl.replace t.fn_tbl "<toplevel>" 0;
  t.fn_names.(0) <- "<toplevel>";
  t.n_fns <- 1;
  (* line slot 0: charges with no current line *)
  Hashtbl.replace t.line_tbl "<unknown>" 0;
  t.line_names.(0) <- "<unknown>";
  t.n_lines <- 1;
  t

let sample_interval_ps t = t.interval_ps

(* --- growable storage ----------------------------------------------------- *)

let grow a n fill =
  let cap = Array.length a in
  if n <= cap then a
  else begin
    let bigger = Array.make (max n (2 * max 1 cap)) fill in
    Array.blit a 0 bigger 0 cap;
    bigger
  end

let ensure_ctx t ctx =
  if ctx >= t.n_ctx then begin
    let n = ctx + 1 in
    t.depths <- grow t.depths n 0;
    t.cur_line <- grow t.cur_line n 0;
    t.attr <- grow t.attr n 0;
    t.stacks <- grow t.stacks n [||];
    t.marks <- grow t.marks n [||];
    t.onstack <- grow t.onstack n [||];
    for c = t.n_ctx to n - 1 do
      t.stacks.(c) <- Array.make 16 0;
      t.marks.(c) <- Array.make 16 0;
      t.onstack.(c) <- Array.make 16 0
    done;
    t.n_ctx <- n
  end

let intern t name =
  match Hashtbl.find_opt t.fn_tbl name with
  | Some slot -> slot
  | None ->
      let slot = t.n_fns in
      t.n_fns <- slot + 1;
      t.fn_names <- grow t.fn_names t.n_fns "";
      t.fn_names.(slot) <- name;
      t.incl <- grow t.incl t.n_fns 0;
      t.calls <- grow t.calls t.n_fns 0;
      for k = 0 to Evlog.n_slice_cats - 1 do
        t.flat.(k) <- grow t.flat.(k) t.n_fns 0
      done;
      Hashtbl.replace t.fn_tbl name slot;
      slot

let intern_line t key =
  match Hashtbl.find_opt t.line_tbl key with
  | Some slot -> slot
  | None ->
      let slot = t.n_lines in
      t.n_lines <- slot + 1;
      t.line_names <- grow t.line_names t.n_lines "";
      t.line_names.(slot) <- key;
      t.line_ps <- grow t.line_ps t.n_lines 0;
      Hashtbl.replace t.line_tbl key slot;
      slot

(* --- frames ---------------------------------------------------------------- *)

let push t ~ctx slot =
  ensure_ctx t ctx;
  let d = t.depths.(ctx) in
  let stack = t.stacks.(ctx) in
  if d = Array.length stack then begin
    t.stacks.(ctx) <- grow stack (d + 1) 0;
    t.marks.(ctx) <- grow t.marks.(ctx) (d + 1) 0
  end;
  let on = t.onstack.(ctx) in
  let on =
    if slot >= Array.length on then begin
      let bigger = grow on (slot + 1) 0 in
      t.onstack.(ctx) <- bigger;
      bigger
    end
    else on
  in
  t.stacks.(ctx).(d) <- slot;
  t.marks.(ctx).(d) <- (if on.(slot) = 0 then t.attr.(ctx) else -1);
  on.(slot) <- on.(slot) + 1;
  t.calls.(slot) <- t.calls.(slot) + 1;
  t.depths.(ctx) <- d + 1

let pop t ~ctx =
  if ctx < t.n_ctx && t.depths.(ctx) > 0 then begin
    let d = t.depths.(ctx) - 1 in
    t.depths.(ctx) <- d;
    let slot = t.stacks.(ctx).(d) in
    t.onstack.(ctx).(slot) <- t.onstack.(ctx).(slot) - 1;
    let mark = t.marks.(ctx).(d) in
    if mark >= 0 then t.incl.(slot) <- t.incl.(slot) + (t.attr.(ctx) - mark)
  end

let set_line t ~ctx line =
  ensure_ctx t ctx;
  t.cur_line.(ctx) <- line

let finalize t =
  for ctx = 0 to t.n_ctx - 1 do
    while t.depths.(ctx) > 0 do
      pop t ~ctx
    done
  done

(* --- charging --------------------------------------------------------------- *)

let charge t ~ctx ~cat dur =
  if dur > 0 then begin
    ensure_ctx t ctx;
    let k = Evlog.cat_index cat in
    let d = t.depths.(ctx) in
    let slot = if d = 0 then 0 else t.stacks.(ctx).(d - 1) in
    t.flat.(k).(slot) <- t.flat.(k).(slot) + dur;
    if d = 0 then t.incl.(0) <- t.incl.(0) + dur;
    t.attr.(ctx) <- t.attr.(ctx) + dur;
    let line = t.cur_line.(ctx) in
    t.line_ps.(line) <- t.line_ps.(line) + dur;
    Obs.Counter.add t.kind_ctr.(k) dur
  end

let ensure_lock t lock =
  if lock >= t.n_locks then begin
    let n = lock + 1 in
    t.lock_names <- grow t.lock_names n "";
    t.lock_acqs <- grow t.lock_acqs n 0;
    t.lock_contended <- grow t.lock_contended n 0;
    t.lock_wait <- grow t.lock_wait n 0;
    t.lock_max_wait <- grow t.lock_max_wait n 0;
    t.lock_max_holder <- grow t.lock_max_holder n (-1);
    t.n_locks <- n
  end

let lock_acquired t ~lock ~wait_ps ~holder =
  ensure_lock t lock;
  t.lock_acqs.(lock) <- t.lock_acqs.(lock) + 1;
  Obs.Counter.incr t.lock_acq_ctr;
  Obs.Histogram.observe t.lock_wait_hist wait_ps;
  if wait_ps > 0 then begin
    t.lock_contended.(lock) <- t.lock_contended.(lock) + 1;
    Obs.Counter.incr t.lock_contended_ctr;
    t.lock_wait.(lock) <- t.lock_wait.(lock) + wait_ps;
    if wait_ps > t.lock_max_wait.(lock) then begin
      t.lock_max_wait.(lock) <- wait_ps;
      t.lock_max_holder.(lock) <- holder
    end
  end

let name_lock t ~lock name =
  ensure_lock t lock;
  if t.lock_names.(lock) = "" then t.lock_names.(lock) <- name

let barrier_episode t ~key ~spread_ps =
  let cell =
    match Hashtbl.find_opt t.barrier_tbl key with
    | Some cell -> cell
    | None ->
        let cell =
          { bc_episodes = 0; bc_total_spread = 0; bc_max_spread = 0 }
        in
        Hashtbl.replace t.barrier_tbl key cell;
        cell
  in
  cell.bc_episodes <- cell.bc_episodes + 1;
  cell.bc_total_spread <- cell.bc_total_spread + spread_ps;
  if spread_ps > cell.bc_max_spread then cell.bc_max_spread <- spread_ps;
  Obs.Counter.incr t.barrier_ctr;
  Obs.Histogram.observe t.barrier_spread_hist spread_ps

let sample t ~ts ~name ~series =
  t.samples <- (ts, name, series) :: t.samples;
  t.n_samples <- t.n_samples + 1

(* --- reports ----------------------------------------------------------------- *)

let attributed_ps t ~ctx = if ctx < t.n_ctx then t.attr.(ctx) else 0

let total_attributed_ps t =
  let acc = ref 0 in
  for c = 0 to t.n_ctx - 1 do
    acc := !acc + t.attr.(c)
  done;
  !acc

let n_ctxs t = t.n_ctx

type fn_row = {
  fn_name : string;
  fn_calls : int;
  fn_flat_ps : int array;
  fn_flat_total_ps : int;
  fn_incl_ps : int;
}

let functions t =
  let rows = ref [] in
  for slot = t.n_fns - 1 downto 0 do
    let flat = Array.init Evlog.n_slice_cats (fun k -> t.flat.(k).(slot)) in
    let total = Array.fold_left ( + ) 0 flat in
    if total > 0 || t.incl.(slot) > 0 then
      rows :=
        {
          fn_name = t.fn_names.(slot);
          fn_calls = t.calls.(slot);
          fn_flat_ps = flat;
          fn_flat_total_ps = total;
          fn_incl_ps = max t.incl.(slot) total;
        }
        :: !rows
  done;
  List.sort
    (fun a b ->
      match compare b.fn_flat_total_ps a.fn_flat_total_ps with
      | 0 -> compare a.fn_name b.fn_name
      | c -> c)
    !rows

let lines t =
  let rows = ref [] in
  for slot = t.n_lines - 1 downto 1 do
    if t.line_ps.(slot) > 0 then
      rows := (t.line_names.(slot), t.line_ps.(slot)) :: !rows
  done;
  List.sort
    (fun (na, a) (nb, b) ->
      match compare b a with 0 -> compare na nb | c -> c)
    !rows

type lock_row = {
  lk_name : string;
  lk_acquisitions : int;
  lk_contended : int;
  lk_wait_ps : int;
  lk_max_wait_ps : int;
  lk_max_holder : int;
}

let locks t =
  let rows = ref [] in
  for lock = t.n_locks - 1 downto 0 do
    if t.lock_acqs.(lock) > 0 then
      rows :=
        {
          lk_name =
            (if t.lock_names.(lock) <> "" then t.lock_names.(lock)
             else Printf.sprintf "lock#%d" lock);
          lk_acquisitions = t.lock_acqs.(lock);
          lk_contended = t.lock_contended.(lock);
          lk_wait_ps = t.lock_wait.(lock);
          lk_max_wait_ps = t.lock_max_wait.(lock);
          lk_max_holder = t.lock_max_holder.(lock);
        }
        :: !rows
  done;
  List.sort
    (fun a b ->
      match compare b.lk_wait_ps a.lk_wait_ps with
      | 0 -> compare a.lk_name b.lk_name
      | c -> c)
    !rows

type barrier_row = {
  br_name : string;
  br_episodes : int;
  br_total_spread_ps : int;
  br_max_spread_ps : int;
}

let barriers t =
  let rows =
    Hashtbl.fold
      (fun key cell acc ->
        ( key,
          {
            br_name =
              (if key < 0 then "global" else Printf.sprintf "barrier#%d" key);
            br_episodes = cell.bc_episodes;
            br_total_spread_ps = cell.bc_total_spread;
            br_max_spread_ps = cell.bc_max_spread;
          } )
        :: acc)
      t.barrier_tbl []
  in
  List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) rows)

let registry t = t.reg

(* --- allocation-free introspection (for the critical-path recorder) ------- *)

let current_fn_slot t ~ctx =
  if ctx < t.n_ctx then begin
    let d = t.depths.(ctx) in
    if d = 0 then 0 else t.stacks.(ctx).(d - 1)
  end
  else 0

let current_line_slot t ~ctx = if ctx < t.n_ctx then t.cur_line.(ctx) else 0

let fn_name t slot =
  if slot >= 0 && slot < t.n_fns then t.fn_names.(slot) else "?"

let line_name t slot =
  if slot >= 0 && slot < t.n_lines then t.line_names.(slot) else "?"

let counter_events t =
  let metrics_pid = 9998 in
  Obs.Chrome.Process_name { pid = metrics_pid; name = "machine metrics" }
  :: List.rev_map
       (fun (ts, name, series) ->
         Obs.Chrome.Counter
           { name; pid = metrics_pid; ts_us = float_of_int ts /. 1e6; series })
       t.samples

(* --- rendering ---------------------------------------------------------------- *)

let render_functions t =
  let header =
    [ "function"; "calls"; "compute"; "private"; "shared"; "mpb"; "barrier";
      "lock"; "flat-ps"; "incl-ps" ]
  in
  let rows =
    List.map
      (fun r ->
        r.fn_name :: string_of_int r.fn_calls
        :: (Array.to_list (Array.map string_of_int r.fn_flat_ps)
           @ [ string_of_int r.fn_flat_total_ps; string_of_int r.fn_incl_ps ]))
      (functions t)
  in
  Obs.render_table (header :: rows)

let render_lines ?(limit = 20) t =
  let rows =
    List.filteri (fun i _ -> i < limit) (lines t)
    |> List.map (fun (name, ps) -> [ name; string_of_int ps ])
  in
  Obs.render_table ([ "line"; "ps" ] :: rows)

let render_locks t =
  let rows =
    List.map
      (fun r ->
        [ r.lk_name;
          string_of_int r.lk_acquisitions;
          string_of_int r.lk_contended;
          string_of_int r.lk_wait_ps;
          string_of_int r.lk_max_wait_ps;
          (if r.lk_max_holder < 0 then "-" else string_of_int r.lk_max_holder)
        ])
      (locks t)
  in
  Obs.render_table
    ([ "mutex"; "acqs"; "contended"; "wait-ps"; "max-wait-ps";
       "holder@max" ]
    :: rows)

let render_barriers t =
  let rows =
    List.map
      (fun r ->
        [ r.br_name;
          string_of_int r.br_episodes;
          string_of_int r.br_total_spread_ps;
          string_of_int r.br_max_spread_ps ])
      (barriers t)
  in
  Obs.render_table
    ([ "barrier"; "episodes"; "spread-ps"; "max-spread-ps" ] :: rows)

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "flat profile (simulated ps):\n";
  Buffer.add_string buf (render_functions t);
  (match lines t with
  | [] -> ()
  | _ ->
      Buffer.add_string buf "\nhottest source lines:\n";
      Buffer.add_string buf (render_lines t));
  (match locks t with
  | [] -> ()
  | _ ->
      Buffer.add_string buf "\nmutex contention:\n";
      Buffer.add_string buf (render_locks t));
  (match barriers t with
  | [] -> ()
  | _ ->
      Buffer.add_string buf "\nbarrier imbalance:\n";
      Buffer.add_string buf (render_barriers t));
  Buffer.contents buf
