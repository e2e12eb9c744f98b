(* Causal observability over the DES (see critpath.mli): views over the
   engine's event log.

   The engine records every local-clock advance in the log exactly once,
   as an interval with a category, an optional cross-context dependency
   edge (lock holder, barrier last-arriver, flag setter, join target,
   spawn parent), and the profiler's current function/line slots.  Two
   things are read from it:

   - a full accounting: the log's per-context per-category picosecond
     totals, which by construction satisfy  sum over categories == wall
     ps  for every context once [finalize] pads the idle tails.  They
     never stop, even when the log hits its cap;

   - the event-dependency graph itself.  The critical path is the
     backward walk from the last event of the last-finishing context:
     follow the dependency edge when there is one, program order
     otherwise.

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

(* --- state ----------------------------------------------------------------- *)

type t = {
  mutable log : Evlog.t;
  mutable mesh_ps : int array;  (* per ctx: mesh-hop ps inside mem intervals *)
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

let create ?limit () =
  {
    log = Evlog.create ?limit ();
    mesh_ps = [||];
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

let log t = t.log
let share_log t log = t.log <- log

(* --- recording (engine side) ----------------------------------------------- *)

let grow a ctx =
  let cap = Array.length a in
  if ctx < cap then a
  else begin
    let bigger = Array.make (max (ctx + 1) (2 * max 64 cap)) 0 in
    Array.blit a 0 bigger 0 cap;
    bigger
  end

let get a ctx = if ctx < Array.length a then a.(ctx) else 0

let note_mesh t ~ctx ps =
  if ps > 0 then begin
    t.mesh_ps <- grow t.mesh_ps ctx;
    t.mesh_ps.(ctx) <- t.mesh_ps.(ctx) + ps
  end

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
    let l = t.log in
    for ctx = 0 to l.n_ctx - 1 do
      if l.fin.(ctx) < wall_ps then
        Evlog.record l ~ctx ~core:(-1) ~cat:Evlog.Idle
          ~dur:(wall_ps - l.fin.(ctx)) ~end_ps:wall_ps ~fn:0 ~line:0
          ~pred:(-1)
    done
  end

(* --- accounting ------------------------------------------------------------- *)

let dropped t = Array.fold_left ( + ) 0 t.log.dropped
let n_ctxs t = t.log.n_ctx
let wall_ps t = t.wall_ps

let cell per_ctx t ~ctx ~cat =
  if ctx < t.log.n_ctx then per_ctx.((ctx * Evlog.n_cats) + Evlog.cat_index cat)
  else 0

let account t = cell t.log.acct t

let account_totals t = Evlog.cat_totals t.log

(* sum of every charged picosecond vs wall * contexts: equal after
   finalize, or the engine missed (or double-charged) an advance *)
let identity t =
  let sum = Array.fold_left ( + ) 0 (account_totals t) in
  (sum, t.wall_ps * t.log.n_ctx)

let identity_ok t =
  let sum, expect = identity t in
  sum = expect

(* --- critical path ----------------------------------------------------------- *)

type step = {
  st_ctx : int;
  st_core : int;
  st_cat : Evlog.cat;
  st_dur : int;
  st_end_ps : int;
  st_fn : int;
  st_line : int;
}

let step_of (l : Evlog.t) i =
  {
    st_ctx = l.e_ctx.(i);
    st_core = l.e_core.(i);
    st_cat = Evlog.cat_of_index l.e_cat.(i);
    st_dur = l.e_dur.(i);
    st_end_ps = l.e_end.(i);
    st_fn = l.e_fn.(i);
    st_line = l.e_line.(i);
  }

(* Backward walk from the last event of the last-finishing context:
   follow the causal edge when the event has one (the wait ends because
   of what the edge points at), program order otherwise.  Returned in
   execution order.  With a truncated log the walk simply bottoms out at
   the oldest recorded ancestor — callers surface [dropped]. *)
let critical_path t =
  let l = t.log in
  if l.n_ctx = 0 || l.len = 0 then []
  else begin
    let last_ctx = ref 0 in
    for ctx = 1 to l.n_ctx - 1 do
      if l.fin.(ctx) > l.fin.(!last_ctx) then last_ctx := ctx
    done;
    let idle = Evlog.cat_index Evlog.Idle in
    let path = ref [] in
    let cur = ref l.last_ev.(!last_ctx) in
    while !cur >= 0 do
      let i = !cur in
      (* idle-tail events pad the accounting; the path skips them *)
      if l.e_cat.(i) <> idle || l.e_pred.(i) >= 0 then
        path := step_of l i :: !path;
      cur := (if l.e_pred.(i) >= 0 then l.e_pred.(i) else l.e_prev.(i))
    done;
    !path
  end

let path_span steps =
  List.fold_left (fun acc s -> acc + s.st_dur) 0 steps

let path_by_category steps =
  let ps = Array.make Evlog.n_cats 0 in
  let n = Array.make Evlog.n_cats 0 in
  List.iter
    (fun s ->
      let c = Evlog.cat_index s.st_cat in
      ps.(c) <- ps.(c) + s.st_dur;
      n.(c) <- n.(c) + 1)
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
  let fin = t.log.fin in
  for ctx = 0 to t.log.n_ctx - 1 do
    let r = min (removable ctx) fin.(ctx) in
    removed := !removed + r;
    if fin.(ctx) - r > !new_wall then new_wall := fin.(ctx) - r
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
  let acct ctx cat = account t ~ctx ~cat in
  [
    make_whatif t ~name:"zero-mesh"
      ~desc:"mesh hops take 0 ps (perfect on-chip network)"
      (fun ctx -> get t.mesh_ps ctx);
    make_whatif t ~name:"zero-lock-wait"
      ~desc:"every lock acquisition is uncontended"
      (fun ctx -> acct ctx Evlog.Lock_wait);
    make_whatif t ~name:"zero-barrier-wait"
      ~desc:"every barrier arrival is the last (perfect balance)"
      (fun ctx -> acct ctx Evlog.Barrier_wait);
    make_whatif t ~name:"mpb-speed-shared"
      ~desc:"shared DRAM lines served at on-chip MPB cost"
      (fun ctx ->
        (* one mem-shared interval per shared-DRAM line transfer *)
        let lines = cell t.log.acct_n t ~ctx ~cat:Evlog.Mem_shared in
        let subst = lines * t.mpb_line_ps in
        max 0 (acct ctx Evlog.Mem_shared - subst));
    make_whatif t ~name:"zero-sched-wait"
      ~desc:"every context owns a core (no time slicing)"
      (fun ctx -> acct ctx Evlog.Sched_wait);
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
   The path only walks retained log records, so when the trace reads the
   same log every step has a slice to bind to.  [max_end_ps] clips the
   chain for callers whose trace may have ended earlier; the chain is
   re-terminated at the last in-range step.  Idle/sched/sync steps carry
   no trace slice and are skipped the same way. *)
let flow_events ?(flow_id = 1) ?max_end_ps t =
  let steps = critical_path t in
  let in_range s =
    s.st_core >= 0
    && Evlog.is_slice s.st_cat
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
            cat = Evlog.cat_name s.st_cat;
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
  List.iter
    (fun cat ->
      Obs.Counter.add
        (Obs.Registry.counter reg
           ~help:"simulated picoseconds accounted per category (all contexts)"
           ~labels:[ ("category", Evlog.cat_name cat) ]
           "sim_account_ps_total")
        totals.(Evlog.cat_index cat))
    Evlog.all_cats

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

(* one entry per category with time in [ps], in index order *)
let nonzero ps f =
  List.filter_map
    (fun c ->
      let i = Evlog.cat_index c in
      if ps.(i) > 0 then Some (f (Evlog.cat_name c) i) else None)
    Evlog.all_cats

let render_account t =
  let totals = account_totals t in
  let counts = Evlog.cat_counts t.log in
  let sum, expect = identity t in
  Obs.render_table
    ([ "category"; "ps"; "share"; "intervals" ]
    :: nonzero totals (fun name i ->
           [ name;
             string_of_int totals.(i);
             Printf.sprintf "%.1f%%" (pct totals.(i) expect);
             string_of_int counts.(i) ]))
  ^ Printf.sprintf "accounted %d ps over %d contexts x %d ps wall (%s)\n" sum
      t.log.n_ctx t.wall_ps
      (if sum = expect then "identity holds"
       else Printf.sprintf "IDENTITY BROKEN: expected %d" expect)

let render_path ?profile ?(limit = 12) t =
  match critical_path t with
  | [] -> "critical path: empty (no events recorded)\n"
  | steps ->
      let span = path_span steps in
      let by_cat, _ = path_by_category steps in
      Printf.sprintf
        "critical path: %d steps, %d ps (%.1f%% of the %d ps wall)%s\n"
        (List.length steps) span (pct span t.wall_ps) t.wall_ps
        (if dropped t > 0 then
           Printf.sprintf " [approximate: %d events dropped]" (dropped t)
         else "")
      ^ Obs.render_table
          ([ "path category"; "ps"; "share" ]
          :: nonzero by_cat (fun name i ->
                 [ name;
                   string_of_int by_cat.(i);
                   Printf.sprintf "%.1f%%" (pct by_cat.(i) span) ]))
      ^ "\nheaviest path contributors:\n"
      ^ Obs.render_table
          ([ "function"; "line"; "category"; "ps"; "steps" ]
          :: List.map
               (fun (fn, line, cat, ps, n) ->
                 [ fn_of profile fn;
                   line_of profile line;
                   Evlog.cat_name cat;
                   string_of_int ps;
                   string_of_int n ])
               (List.filteri (fun i _ -> i < limit) (path_contributors steps)))

let render_whatifs t =
  let la = lookahead t in
  Obs.render_table
    ([ "what-if"; "removed-ps"; "new-wall-ps"; "ceiling"; "assumption" ]
    :: List.map
         (fun w ->
           [ w.wi_name;
             string_of_int w.wi_removed_ps;
             string_of_int w.wi_new_wall_ps;
             Printf.sprintf "%.2fx" w.wi_ceiling;
             w.wi_desc ])
         (whatifs t))
  ^ Printf.sprintf
      "LBTS lookahead: %d partitions (one per active tile), windowed \
       simulator ceiling %.2fx, infinite-lookahead ceiling %.2fx\n"
      la.la_partitions la.la_windowed_ceiling la.la_infinite_ceiling

let render ?profile t =
  "where the time goes (full accounting):\n" ^ render_account t ^ "\n"
  ^ render_path ?profile t ^ "\nspeedup ceilings (what-if replay):\n"
  ^ render_whatifs t

(* --- JSON report ----------------------------------------------------------------- *)

let to_json ?profile t =
  let totals = account_totals t in
  let counts = Evlog.cat_counts t.log in
  let sum, expect = identity t in
  let steps = critical_path t in
  let by_cat, by_cat_n = path_by_category steps in
  let la = lookahead t in
  let list l = String.concat ", " l in
  Printf.sprintf
    "{\n  \"wall_ps\": %d,\n  \"contexts\": %d,\n  \"events\": %d,\n  \
     \"dropped\": %d,\n  \"identity\": {\"sum_ps\": %d, \"wall_x_contexts\": \
     %d, \"ok\": %b},\n  \"account\": [%s],\n  \"critical_path\": {\"steps\": \
     %d, \"span_ps\": %d, \"by_category\": [%s], \"top\": [%s]},\n  \
     \"whatif\": [%s],\n  \"lookahead\": {\"partitions\": %d, \
     \"windowed_ceiling\": %.4f, \"infinite_ceiling\": %.4f}\n}\n"
    t.wall_ps t.log.n_ctx t.log.len (dropped t) sum expect (sum = expect)
    (list
       (nonzero totals (fun name i ->
            Printf.sprintf
              "{\"category\": \"%s\", \"ps\": %d, \"intervals\": %d}" name
              totals.(i) counts.(i))))
    (List.length steps) (path_span steps)
    (list
       (nonzero by_cat (fun name i ->
            Printf.sprintf "{\"category\": \"%s\", \"ps\": %d, \"steps\": %d}"
              name by_cat.(i) by_cat_n.(i))))
    (list
       (List.map
          (fun (fn, line, cat, ps, n) ->
            Printf.sprintf
              "{\"function\": \"%s\", \"line\": \"%s\", \"category\": \
               \"%s\", \"ps\": %d, \"steps\": %d}"
              (Obs.json_escape (fn_of profile fn))
              (Obs.json_escape (line_of profile line))
              (Evlog.cat_name cat) ps n)
          (List.filteri (fun i _ -> i < 12) (path_contributors steps))))
    (list
       (List.map
          (fun w ->
            Printf.sprintf
              "{\"name\": \"%s\", \"removed_ps\": %d, \"new_wall_ps\": %d, \
               \"ceiling\": %.4f}"
              w.wi_name w.wi_removed_ps w.wi_new_wall_ps w.wi_ceiling)
          (whatifs t)))
    la.la_partitions la.la_windowed_ceiling la.la_infinite_ceiling
