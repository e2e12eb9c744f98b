(* Causal observability over the DES (see critpath.mli).

   The engine reports every local-clock advance here exactly once, as an
   interval with a category, an optional cross-context dependency edge
   (lock holder, barrier last-arriver, flag setter, join target, spawn
   parent), and the profiler's current function/line slots.  Two things
   are built from that stream:

   - a full accounting: per-context per-category picosecond totals that
     by construction satisfy  sum over categories == wall ps  for every
     context (idle head/tail fills the gaps), so nothing is silently
     dropped.  The accumulators are plain adds and never stop, even
     when the event buffer hits its cap;

   - the event-dependency graph itself, in growable flat int arrays
     (Trace-style: record is a handful of array stores, overflow is
     counted, never silent).  The critical path is the backward walk
     from the last event of the last-finishing context: follow the
     dependency edge when there is one, program order otherwise.

   What-if estimators replay the accounting under counterfactuals
   (zero mesh latency, zero lock waits, MPB-speed shared DRAM) by
   subtracting the removable picoseconds from each context's finish
   time; the new wall is the max over contexts.  These are ceilings,
   not predictions: removing a wait can re-order a lock queue or shift
   a barrier's last arriver, which the replay ignores.

   A third view is fed once per scheduler event (not per interval): the
   LBTS parallelism ceiling.  Events are grouped into lookahead-wide
   windows — a window opens at the first event at or past the previous
   window's end and spans one mesh hop — and each window keeps the set
   of cores that ran an event in it.  Window boundaries depend only on
   the sequence of event times, never on how cores are grouped, so a
   histogram from per-window core mask to window count, plus per-core
   event counts, gives the ceiling for any partitioning of the cores
   after the fact, from one sequential run. *)

(* --- categories ------------------------------------------------------------ *)

(* 0..5 mirror Trace.kind_index; 6..8 cover the advances the trace does
   not see, so that every picosecond lands somewhere. *)
let cat_compute = 0
let cat_mem_private = 1
let cat_mem_shared = 2
let cat_mem_mpb = 3
let cat_barrier_wait = 4
let cat_lock_wait = 5
let cat_sched_wait = 6
let cat_sync = 7
let cat_idle = 8
let n_categories = 9

let () = assert (Trace.n_kinds = 6)

let category_name = function
  | 0 -> "compute"
  | 1 -> "mem-private"
  | 2 -> "mem-shared"
  | 3 -> "mem-mpb"
  | 4 -> "barrier-wait"
  | 5 -> "lock-wait"
  | 6 -> "sched-wait"
  | 7 -> "sync"
  | 8 -> "idle"
  | c -> invalid_arg (Printf.sprintf "Critpath.category_name: %d" c)

let cat_of_kind k = Trace.kind_index k

(* --- state ----------------------------------------------------------------- *)

type t = {
  limit : int;
  (* event-dependency graph, parallel flat arrays indexed by event id *)
  mutable e_ctx : int array;
  mutable e_core : int array;
  mutable e_cat : int array;
  mutable e_dur : int array;
  mutable e_end : int array;
  mutable e_fn : int array;
  mutable e_line : int array;
  mutable e_pred : int array;   (* causal edge, -1 = program order only *)
  mutable e_prev : int array;   (* previous event of the same ctx, -1 = first *)
  mutable len : int;
  mutable n_dropped : int;
  (* per-context state (growable) *)
  mutable last_ev : int array;        (* last recorded event id, -1 none *)
  mutable fin : int array;            (* local clock after the last advance *)
  mutable acct : int array array;     (* [ctx].[cat] picoseconds, exact *)
  mutable acct_n : int array array;   (* [ctx].[cat] interval counts *)
  mutable mesh_ps : int array;        (* mesh-hop ps inside mem intervals *)
  mutable shared_n : int array;       (* shared-DRAM line transfers *)
  mutable n_ctx : int;
  (* set by finalize *)
  mutable wall_ps : int;
  mutable mpb_line_ps : int;          (* nominal MPB line round trip *)
  mutable finalized : bool;
  (* LBTS window view; [la_cores] is 0 until the engine attaches *)
  mutable la_cores : int;
  mutable la_cores_per_tile : int;
  mutable la_lookahead_ps : int;
  mutable win_end : int;             (* current window end (exclusive) *)
  mutable win_mask : int;            (* cores with events in it *)
  win_hist : (int, int ref) Hashtbl.t;  (* closed windows per core mask *)
  mutable core_events : int array;
}

let create ?(limit = 1_000_000) () =
  {
    limit;
    e_ctx = [||]; e_core = [||]; e_cat = [||]; e_dur = [||]; e_end = [||];
    e_fn = [||]; e_line = [||]; e_pred = [||]; e_prev = [||];
    len = 0;
    n_dropped = 0;
    last_ev = [||];
    fin = [||];
    acct = [||];
    acct_n = [||];
    mesh_ps = [||];
    shared_n = [||];
    n_ctx = 0;
    wall_ps = 0;
    mpb_line_ps = 0;
    finalized = false;
    la_cores = 0;
    la_cores_per_tile = 1;
    la_lookahead_ps = 0;
    win_end = min_int;
    win_mask = 0;
    win_hist = Hashtbl.create 64;
    core_events = [||];
  }

let grow a n fill =
  let cap = Array.length a in
  if n <= cap then a
  else begin
    let bigger = Array.make (max n (2 * max 1024 cap)) fill in
    Array.blit a 0 bigger 0 cap;
    bigger
  end

let ensure_ctx t ctx =
  if ctx >= t.n_ctx then begin
    let n = ctx + 1 in
    let old = t.n_ctx in
    t.last_ev <- grow t.last_ev n (-1);
    t.fin <- grow t.fin n 0;
    t.mesh_ps <- grow t.mesh_ps n 0;
    t.shared_n <- grow t.shared_n n 0;
    let cap = Array.length t.acct in
    if n > cap then begin
      let grow_2d a =
        let bigger = Array.make (max n (2 * max 1 cap)) [||] in
        Array.blit a 0 bigger 0 cap;
        bigger
      in
      t.acct <- grow_2d t.acct;
      t.acct_n <- grow_2d t.acct_n
    end;
    for c = old to n - 1 do
      if Array.length t.acct.(c) = 0 then begin
        t.acct.(c) <- Array.make n_categories 0;
        t.acct_n.(c) <- Array.make n_categories 0
      end
    done;
    t.n_ctx <- n
  end

(* --- recording (engine side) ----------------------------------------------- *)

let record t ~ctx ~core ~cat ~dur ~end_ps ~fn ~line ~pred =
  if dur > 0 then begin
    ensure_ctx t ctx;
    (* accounting is exact regardless of event-buffer truncation *)
    t.acct.(ctx).(cat) <- t.acct.(ctx).(cat) + dur;
    t.acct_n.(ctx).(cat) <- t.acct_n.(ctx).(cat) + 1;
    if end_ps > t.fin.(ctx) then t.fin.(ctx) <- end_ps;
    if t.len >= t.limit then t.n_dropped <- t.n_dropped + 1
    else begin
      let i = t.len in
      let cap = Array.length t.e_ctx in
      if i = cap then begin
        t.e_ctx <- grow t.e_ctx (i + 1) 0;
        t.e_core <- grow t.e_core (i + 1) 0;
        t.e_cat <- grow t.e_cat (i + 1) 0;
        t.e_dur <- grow t.e_dur (i + 1) 0;
        t.e_end <- grow t.e_end (i + 1) 0;
        t.e_fn <- grow t.e_fn (i + 1) 0;
        t.e_line <- grow t.e_line (i + 1) 0;
        t.e_pred <- grow t.e_pred (i + 1) (-1);
        t.e_prev <- grow t.e_prev (i + 1) (-1)
      end;
      t.e_ctx.(i) <- ctx;
      t.e_core.(i) <- core;
      t.e_cat.(i) <- cat;
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

let note_mesh t ~ctx ps =
  if ps > 0 then begin
    ensure_ctx t ctx;
    t.mesh_ps.(ctx) <- t.mesh_ps.(ctx) + ps
  end

let note_shared_access t ~ctx =
  ensure_ctx t ctx;
  t.shared_n.(ctx) <- t.shared_n.(ctx) + 1

(* Core masks are ints, so the view covers machines of up to
   [Sys.int_size - 1] cores (the SCC has 48); larger meshes leave it off. *)
let set_machine t ~cores ~cores_per_tile ~lookahead_ps =
  if cores < Sys.int_size then begin
    t.la_cores <- cores;
    t.la_cores_per_tile <- cores_per_tile;
    t.la_lookahead_ps <- lookahead_ps;
    t.core_events <- Array.make cores 0
  end

let note_event t ~core ~now =
  if t.la_cores > 0 then begin
    if now >= t.win_end then begin
      if t.win_mask <> 0 then begin
        match Hashtbl.find_opt t.win_hist t.win_mask with
        | Some n -> incr n
        | None -> Hashtbl.add t.win_hist t.win_mask (ref 1)
      end;
      t.win_end <- now + t.la_lookahead_ps;
      t.win_mask <- 0
    end;
    t.win_mask <- t.win_mask lor (1 lsl core);
    t.core_events.(core) <- t.core_events.(core) + 1
  end

let finalize t ~wall_ps ~mpb_line_ps =
  if not t.finalized then begin
    t.finalized <- true;
    t.wall_ps <- wall_ps;
    t.mpb_line_ps <- mpb_line_ps;
    (* idle tail: a context that finished before the wall is idle until
       the wall; recording it makes the accounting identity hold with
       no special cases *)
    for ctx = 0 to t.n_ctx - 1 do
      if t.fin.(ctx) < wall_ps then
        record t ~ctx ~core:(-1) ~cat:cat_idle ~dur:(wall_ps - t.fin.(ctx))
          ~end_ps:wall_ps ~fn:0 ~line:0 ~pred:(-1)
    done
  end

(* --- accounting ------------------------------------------------------------- *)

let events t = t.len
let dropped t = t.n_dropped
let n_ctxs t = t.n_ctx
let wall_ps t = t.wall_ps

let account t ~ctx ~cat =
  if ctx < t.n_ctx then t.acct.(ctx).(cat) else 0

let account_events t ~ctx ~cat =
  if ctx < t.n_ctx then t.acct_n.(ctx).(cat) else 0

let account_totals t =
  let acc = Array.make n_categories 0 in
  for ctx = 0 to t.n_ctx - 1 do
    for cat = 0 to n_categories - 1 do
      acc.(cat) <- acc.(cat) + t.acct.(ctx).(cat)
    done
  done;
  acc

let account_event_totals t =
  let acc = Array.make n_categories 0 in
  for ctx = 0 to t.n_ctx - 1 do
    for cat = 0 to n_categories - 1 do
      acc.(cat) <- acc.(cat) + t.acct_n.(ctx).(cat)
    done
  done;
  acc

(* sum of every charged picosecond vs wall * contexts: equal after
   finalize, or the engine missed (or double-charged) an advance *)
let identity t =
  let sum = Array.fold_left ( + ) 0 (account_totals t) in
  (sum, t.wall_ps * t.n_ctx)

let identity_ok t =
  let sum, expect = identity t in
  sum = expect

(* --- critical path ----------------------------------------------------------- *)

type step = {
  st_ctx : int;
  st_core : int;
  st_cat : int;
  st_dur : int;
  st_end_ps : int;
  st_fn : int;
  st_line : int;
}

let step_of t i =
  {
    st_ctx = t.e_ctx.(i);
    st_core = t.e_core.(i);
    st_cat = t.e_cat.(i);
    st_dur = t.e_dur.(i);
    st_end_ps = t.e_end.(i);
    st_fn = t.e_fn.(i);
    st_line = t.e_line.(i);
  }

(* Backward walk from the last event of the last-finishing context:
   follow the causal edge when the event has one (the wait ends because
   of what the edge points at), program order otherwise.  Returned in
   execution order.  With a truncated buffer the walk simply bottoms
   out at the oldest recorded ancestor — callers surface [dropped]. *)
let critical_path t =
  if t.n_ctx = 0 || t.len = 0 then []
  else begin
    let last_ctx = ref 0 in
    for ctx = 1 to t.n_ctx - 1 do
      if t.fin.(ctx) > t.fin.(!last_ctx) then last_ctx := ctx
    done;
    let path = ref [] in
    let cur = ref t.last_ev.(!last_ctx) in
    while !cur >= 0 do
      let i = !cur in
      (* idle-tail events pad the accounting; the path skips them *)
      if t.e_cat.(i) <> cat_idle || t.e_pred.(i) >= 0 then
        path := step_of t i :: !path;
      cur := (if t.e_pred.(i) >= 0 then t.e_pred.(i) else t.e_prev.(i))
    done;
    !path
  end

let path_span steps =
  List.fold_left (fun acc s -> acc + s.st_dur) 0 steps

let path_by_category steps =
  let ps = Array.make n_categories 0 in
  let n = Array.make n_categories 0 in
  List.iter
    (fun s ->
      ps.(s.st_cat) <- ps.(s.st_cat) + s.st_dur;
      n.(s.st_cat) <- n.(s.st_cat) + 1)
    steps;
  (ps, n)

(* top {fn, line, category} contributors along the path, hottest first *)
let path_contributors steps =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let key = (s.st_fn, s.st_line, s.st_cat) in
      let cur = try Hashtbl.find tbl key with Not_found -> (0, 0) in
      Hashtbl.replace tbl key (fst cur + s.st_dur, snd cur + 1))
    steps;
  let rows =
    Hashtbl.fold
      (fun (fn, line, cat) (ps, n) acc -> (fn, line, cat, ps, n) :: acc)
      tbl []
  in
  List.sort
    (fun (fa, la, ca, pa, _) (fb, lb, cb, pb, _) ->
      match compare pb pa with
      | 0 -> compare (fa, la, ca) (fb, lb, cb)
      | c -> c)
    rows

(* --- what-if estimators ------------------------------------------------------ *)

type whatif = {
  wi_name : string;
  wi_desc : string;
  wi_removed_ps : int;      (* total removable across contexts *)
  wi_new_wall_ps : int;
  wi_ceiling : float;       (* old wall / new wall, >= 1.0 *)
}

(* new wall under a counterfactual that removes [removable ctx]
   picoseconds from each context's finish time *)
let replay t removable =
  let new_wall = ref 1 in
  let removed = ref 0 in
  for ctx = 0 to t.n_ctx - 1 do
    let r = min (removable ctx) t.fin.(ctx) in
    removed := !removed + r;
    if t.fin.(ctx) - r > !new_wall then new_wall := t.fin.(ctx) - r
  done;
  (!removed, max 1 !new_wall)

let make_whatif t ~name ~desc removable =
  let removed, new_wall = replay t removable in
  {
    wi_name = name;
    wi_desc = desc;
    wi_removed_ps = removed;
    wi_new_wall_ps = new_wall;
    wi_ceiling =
      (if t.wall_ps <= 0 then 1.0
       else float_of_int t.wall_ps /. float_of_int new_wall);
  }

let whatifs t =
  [
    make_whatif t ~name:"zero-mesh"
      ~desc:"mesh hops take 0 ps (perfect on-chip network)"
      (fun ctx -> t.mesh_ps.(ctx));
    make_whatif t ~name:"zero-lock-wait"
      ~desc:"every lock acquisition is uncontended"
      (fun ctx -> t.acct.(ctx).(cat_lock_wait));
    make_whatif t ~name:"zero-barrier-wait"
      ~desc:"every barrier arrival is the last (perfect balance)"
      (fun ctx -> t.acct.(ctx).(cat_barrier_wait));
    make_whatif t ~name:"mpb-speed-shared"
      ~desc:"shared DRAM lines served at on-chip MPB cost"
      (fun ctx ->
        let subst = t.shared_n.(ctx) * t.mpb_line_ps in
        max 0 (t.acct.(ctx).(cat_mem_shared) - subst));
    make_whatif t ~name:"zero-sched-wait"
      ~desc:"every context owns a core (no time slicing)"
      (fun ctx -> t.acct.(ctx).(cat_sched_wait));
  ]

type lookahead = {
  la_partitions : int;
  la_windows : int;
  la_windowed_ceiling : float;
  la_infinite_ceiling : float;
  la_events : int array;
}

let popcount m =
  let m = ref m and n = ref 0 in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr n
  done;
  !n

let lookahead ?parts t =
  let n = t.la_cores in
  let nparts, part_of_core =
    match parts with
    | Some p ->
        if p < 1 then invalid_arg "Critpath.lookahead: parts must be positive";
        (* contiguous core ranges, so tiles stay together *)
        let p = max 1 (min p n) in
        (p, Array.init n (fun core -> core * p / n))
    | None ->
        (* one partition per tile that ran any event, in tile order *)
        let cpt = t.la_cores_per_tile in
        let part_of_tile = Array.make ((n + cpt - 1) / cpt) (-1) in
        let active = ref 0 in
        Array.iteri
          (fun core ev ->
            let tile = core / cpt in
            if ev > 0 && part_of_tile.(tile) < 0 then begin
              part_of_tile.(tile) <- !active;
              incr active
            end)
          t.core_events;
        ( max 1 !active,
          Array.init n (fun core -> max 0 part_of_tile.(core / cpt)) )
  in
  let events = Array.make nparts 0 in
  Array.iteri
    (fun core ev ->
      events.(part_of_core.(core)) <- events.(part_of_core.(core)) + ev)
    t.core_events;
  let windows = ref 0 and active_sum = ref 0 in
  let add core_mask count =
    let parts_mask = ref 0 in
    for core = 0 to n - 1 do
      if core_mask land (1 lsl core) <> 0 then
        parts_mask := !parts_mask lor (1 lsl part_of_core.(core))
    done;
    windows := !windows + count;
    active_sum := !active_sum + (count * popcount !parts_mask)
  in
  Hashtbl.iter (fun mask n -> add mask !n) t.win_hist;
  (* the window still open when the run ended *)
  if t.win_mask <> 0 then add t.win_mask 1;
  let total = Array.fold_left ( + ) 0 events in
  let busiest = Array.fold_left max 1 events in
  {
    la_partitions = nparts;
    la_windows = !windows;
    la_windowed_ceiling =
      (if !windows = 0 then 1.0
       else float_of_int !active_sum /. float_of_int !windows);
    la_infinite_ceiling =
      (if total = 0 then 1.0
       else float_of_int total /. float_of_int busiest);
    la_events = events;
  }

(* --- Perfetto flow arrows ----------------------------------------------------- *)

(* One flow chain threaded through the trace slices the path's events
   fall inside (pid = core, tid = ctx, matching Trace.to_chrome_events).
   [max_end_ps] clips the chain when the flat trace buffer truncated:
   steps past the last traced picosecond have no slice to bind to, so
   emitting them would leave dangling flow ids — the chain is instead
   re-terminated at the last in-range step.  Idle/sched steps carry no
   trace slice either and are skipped the same way. *)
let flow_events ?(flow_id = 1) ?max_end_ps t =
  let steps = critical_path t in
  let in_range s =
    s.st_core >= 0
    && s.st_cat <= cat_lock_wait   (* categories with trace slices *)
    && (match max_end_ps with None -> true | Some m -> s.st_end_ps <= m)
  in
  let steps = List.filter in_range steps in
  let n = List.length steps in
  if n < 2 then []
  else
    List.mapi
      (fun i s ->
        let phase =
          if i = 0 then Obs.Chrome.Flow_start
          else if i = n - 1 then Obs.Chrome.Flow_end
          else Obs.Chrome.Flow_step
        in
        (* a timestamp strictly inside the slice, so Perfetto binds the
           arrow to the right interval *)
        let ts_ps = s.st_end_ps - ((s.st_dur + 1) / 2) in
        Obs.Chrome.Flow
          {
            name = "critical-path";
            cat = category_name s.st_cat;
            id = flow_id;
            pid = s.st_core;
            tid = s.st_ctx;
            ts_us = float_of_int ts_ps /. 1e6;
            phase;
          })
      steps

(* --- Prometheus ---------------------------------------------------------------- *)

let register_metrics t reg =
  let totals = account_totals t in
  for cat = 0 to n_categories - 1 do
    let c =
      Obs.Registry.counter reg
        ~help:"simulated picoseconds accounted per category (all contexts)"
        ~labels:[ ("category", category_name cat) ]
        "sim_account_ps_total"
    in
    Obs.Counter.add c totals.(cat)
  done

(* --- rendering ------------------------------------------------------------------ *)

let pct num den =
  if den <= 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let fn_of profile slot =
  match profile with
  | Some p -> Profile.fn_name p slot
  | None -> if slot = 0 then "<toplevel>" else Printf.sprintf "fn#%d" slot

let line_of profile slot =
  match profile with
  | Some p -> Profile.line_name p slot
  | None -> if slot = 0 then "<unknown>" else Printf.sprintf "line#%d" slot

let render_account t =
  let totals = account_totals t in
  let counts = account_event_totals t in
  let sum, expect = identity t in
  let rows = ref [] in
  for cat = n_categories - 1 downto 0 do
    if totals.(cat) > 0 then
      rows :=
        [ category_name cat;
          string_of_int totals.(cat);
          Printf.sprintf "%.1f%%" (pct totals.(cat) expect);
          string_of_int counts.(cat) ]
        :: !rows
  done;
  let table =
    Obs.render_table ([ "category"; "ps"; "share"; "intervals" ] :: !rows)
  in
  table
  ^ Printf.sprintf "accounted %d ps over %d contexts x %d ps wall (%s)\n" sum
      t.n_ctx t.wall_ps
      (if sum = expect then "identity holds"
       else Printf.sprintf "IDENTITY BROKEN: expected %d" expect)

let render_path ?profile ?(limit = 12) t =
  let steps = critical_path t in
  match steps with
  | [] -> "critical path: empty (no events recorded)\n"
  | _ ->
      let span = path_span steps in
      let by_cat, _ = path_by_category steps in
      let buf = Buffer.create 512 in
      Buffer.add_string buf
        (Printf.sprintf
           "critical path: %d steps, %d ps (%.1f%% of the %d ps wall)%s\n"
           (List.length steps) span (pct span t.wall_ps) t.wall_ps
           (if t.n_dropped > 0 then
              Printf.sprintf " [approximate: %d events dropped]" t.n_dropped
            else ""));
      let rows = ref [] in
      for cat = n_categories - 1 downto 0 do
        if by_cat.(cat) > 0 then
          rows :=
            [ category_name cat;
              string_of_int by_cat.(cat);
              Printf.sprintf "%.1f%%" (pct by_cat.(cat) span) ]
            :: !rows
      done;
      Buffer.add_string buf
        (Obs.render_table ([ "path category"; "ps"; "share" ] :: !rows));
      let contributors = path_contributors steps in
      let shown = List.filteri (fun i _ -> i < limit) contributors in
      Buffer.add_string buf "\nheaviest path contributors:\n";
      Buffer.add_string buf
        (Obs.render_table
           ([ "function"; "line"; "category"; "ps"; "steps" ]
           :: List.map
                (fun (fn, line, cat, ps, n) ->
                  [ fn_of profile fn;
                    line_of profile line;
                    category_name cat;
                    string_of_int ps;
                    string_of_int n ])
                shown));
      Buffer.contents buf

let render_whatifs t =
  let rows =
    List.map
      (fun w ->
        [ w.wi_name;
          string_of_int w.wi_removed_ps;
          string_of_int w.wi_new_wall_ps;
          Printf.sprintf "%.2fx" w.wi_ceiling;
          w.wi_desc ])
      (whatifs t)
  in
  let la = lookahead t in
  let table =
    Obs.render_table
      ([ "what-if"; "removed-ps"; "new-wall-ps"; "ceiling"; "assumption" ]
      :: rows)
  in
  table
  ^ Printf.sprintf
      "LBTS lookahead: %d partitions (one per active tile), windowed \
       simulator ceiling %.2fx, infinite-lookahead ceiling %.2fx\n"
      la.la_partitions la.la_windowed_ceiling la.la_infinite_ceiling

let render ?profile t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "where the time goes (full accounting):\n";
  Buffer.add_string buf (render_account t);
  Buffer.add_string buf "\n";
  Buffer.add_string buf (render_path ?profile t);
  Buffer.add_string buf "\nspeedup ceilings (what-if replay):\n";
  Buffer.add_string buf (render_whatifs t);
  Buffer.contents buf

(* --- JSON report ----------------------------------------------------------------- *)

let to_json ?profile t =
  let totals = account_totals t in
  let counts = account_event_totals t in
  let sum, expect = identity t in
  let steps = critical_path t in
  let span = path_span steps in
  let by_cat, by_cat_n = path_by_category steps in
  let la = lookahead t in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"wall_ps\": %d,\n  \"contexts\": %d,\n  \"events\": %d,\n  \
        \"dropped\": %d,\n"
       t.wall_ps t.n_ctx t.len t.n_dropped);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"identity\": {\"sum_ps\": %d, \"wall_x_contexts\": %d, \"ok\": %b},\n"
       sum expect (sum = expect));
  Buffer.add_string buf "  \"account\": [";
  let first = ref true in
  for cat = 0 to n_categories - 1 do
    if totals.(cat) > 0 then begin
      if not !first then Buffer.add_string buf ", ";
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"category\": \"%s\", \"ps\": %d, \"intervals\": %d}"
           (category_name cat) totals.(cat) counts.(cat))
    end
  done;
  Buffer.add_string buf "],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"critical_path\": {\"steps\": %d, \"span_ps\": %d, \
        \"by_category\": ["
       (List.length steps) span);
  let first = ref true in
  for cat = 0 to n_categories - 1 do
    if by_cat.(cat) > 0 then begin
      if not !first then Buffer.add_string buf ", ";
      first := false;
      Buffer.add_string buf
        (Printf.sprintf "{\"category\": \"%s\", \"ps\": %d, \"steps\": %d}"
           (category_name cat) by_cat.(cat) by_cat_n.(cat))
    end
  done;
  Buffer.add_string buf "], \"top\": [";
  let contributors = path_contributors steps in
  List.iteri
    (fun i (fn, line, cat, ps, n) ->
      if i < 12 then begin
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf
          (Printf.sprintf
             "{\"function\": \"%s\", \"line\": \"%s\", \"category\": \
              \"%s\", \"ps\": %d, \"steps\": %d}"
             (Obs.json_escape (fn_of profile fn))
             (Obs.json_escape (line_of profile line))
             (category_name cat) ps n)
      end)
    contributors;
  Buffer.add_string buf "]},\n";
  Buffer.add_string buf "  \"whatif\": [";
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\": \"%s\", \"removed_ps\": %d, \"new_wall_ps\": %d, \
            \"ceiling\": %.4f}"
           w.wi_name w.wi_removed_ps w.wi_new_wall_ps w.wi_ceiling))
    (whatifs t);
  Buffer.add_string buf "],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"lookahead\": {\"partitions\": %d, \"windowed_ceiling\": %.4f, \
        \"infinite_ceiling\": %.4f}\n"
       la.la_partitions la.la_windowed_ceiling la.la_infinite_ceiling);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
