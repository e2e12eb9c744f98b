(* Deterministic discrete-event simulation engine.

   Every execution context (an RCCE process on its own core, or a Pthread
   on the shared baseline core) is an OCaml-5 effects coroutine.  The
   scheduler resumes the runnable context with the smallest local time —
   except that a context still owning its shared core's time slice is
   preferred, which is what keeps the Pthread baseline from paying a
   context switch per cache line.  Shared resources (core pipelines, the
   four memory controllers, MPB ports, test-and-set locks, the barrier)
   are therefore arbitrated in global time order and every run is
   reproducible.

   Timing model (converted to picoseconds from each component's clock):
   - compute: [n] core cycles on the context's core; when several
     contexts share a core the pipeline is a serial resource with a
     context-switch penalty per handoff and per expired quantum;
   - private DRAM: per line through L1 then L2 (tag-true LRU caches), a
     miss travelling mesh -> home memory controller (FIFO server, queuing
     delay) -> DRAM and back, plus dirty-victim writeback occupancy;
   - shared DRAM: uncacheable; every line pays the full mesh + controller
     + DRAM round trip, controllers chosen by line interleaving;
   - MPB: base access cost plus mesh round trip to the owning tile plus
     a transfer slot at the owning slice's port;
   - barrier: gather/release among the statically spawned contexts;
   - locks: the per-core test-and-set registers, FIFO handoff.

   Block accesses are performed line-by-line from the coroutine so the
   scheduler can interleave other contexts' requests between lines — a
   context must never claim memory-controller slots in another context's
   future.

   Contexts may also be spawned *during* the run ([spawn_child], used by
   the C interpreter's pthread_create) and joined ([join]); dynamic
   contexts do not participate in the barrier group. *)

type api = {
  self : int;
  nunits : int;
  core : int;
  compute : int -> unit;            (* core cycles *)
  load : int -> bytes:int -> unit;  (* address, block size *)
  store : int -> bytes:int -> unit;
  barrier : unit -> unit;
  acquire : int -> unit;
  release : int -> unit;
  now_ps : unit -> int;
  spawn_child : core:int -> (api -> unit) -> int;
  join : int -> unit;
  barrier_n : id:int -> count:int -> unit;
  flag_set : id:int -> bool -> unit;
  flag_wait : id:int -> unit;
  set_frequency : core:int -> mhz:int -> unit;
}

type _ Effect.t +=
  | E_barrier : unit Effect.t
  | E_acquire : int -> unit Effect.t
  | E_release : int -> unit Effect.t
  | E_now : int Effect.t
  | E_spawn : (int * (api -> unit)) -> int Effect.t
  | E_join : int -> unit Effect.t
  | E_barrier_n : (int * int) -> unit Effect.t   (* barrier id, group size *)
  | E_set_freq : (int * int) -> unit Effect.t    (* core, MHz (whole tile) *)
  | E_flag_set : (int * bool) -> unit Effect.t   (* flag id, value *)
  | E_flag_wait : int -> unit Effect.t           (* until the flag is set *)
  | E_yield : unit Effect.t
      (* yield to the scheduler with the operation's charge already
         applied — performed by [api.compute]/[load]/[store] only when
         the in-place fast path could not prove the scheduler would
         pick this context again *)

type pending =
  | Start of (unit -> unit)
  | Cont of (unit, unit) Effect.Deep.continuation

type ctx_status = Ready | Running | Parked | Finished

type ctx = {
  id : int;
  core : int;
  barrier_member : bool;    (* statically spawned: participates in barrier *)
  stats : Stats.ctx_stats;
  mutable now : int;
  mutable status : ctx_status;
  mutable pending : pending option;
  mutable joiners : (ctx * (unit, unit) Effect.Deep.continuation) list;
      (* contexts blocked in [join] on this one *)
}

type proc = {
  mutable free_at : int;
  mutable last_ctx : int;
  mutable ctx_count : int;
  mutable slice_end : int;   (* absolute end of the current time slice *)
}

type lock = {
  mutable held_by : int option;
  mutable free_time : int;
  mutable free_ev : int;   (* critpath event that freed the register; -1 none *)
  waiters : (ctx * (unit, unit) Effect.Deep.continuation) Queue.t;
}

(* An MPB-resident synchronization flag (the primitive under RCCE's
   send/recv and wait_until). *)
type flag = {
  mutable value : bool;
  mutable set_time : int;
  mutable set_ev : int;    (* critpath event of the set; -1 none *)
  mutable flag_waiters : (ctx * (unit, unit) Effect.Deep.continuation) list;
}

exception Deadlock of string

(* A counted barrier's per-group bookkeeping: arrivals are counted, not
   re-measured with [List.length] on every entry. *)
type counted_barrier = {
  mutable cb_arrived : int;
  mutable cb_waiters : (ctx * (unit, unit) Effect.Deep.continuation) list;
}

type t = {
  cfg : Config.t;
  mesh : Mesh.t;
  memmap : Memmap.t;
  mutable ctx_arr : ctx array;   (* growable; slots >= [n_ctx] are filler *)
  mutable n_ctx : int;
  procs : proc array;
  l1 : Cache.t array;
  l2 : Cache.t array;
  mc_free_at : int array;
  mc_busy_ps : int array;
  mc_requests : int array;
  mpb_free_at : int array;
  mutable barrier_waiting : (ctx * (unit, unit) Effect.Deep.continuation) list;
  mutable n_barrier_waiting : int;
  mutable n_barrier_members : int;  (* statically spawned contexts *)
  counted_barriers : (int, counted_barrier) Hashtbl.t;
  flags : (int, flag) Hashtbl.t;
  mutable n_join_waiting : int;     (* across every context's [joiners] *)
  locks : lock array;
  mutable n_finished : int;
  mutable started : bool;
  mutable n_events : int;           (* contexts resumed *)
  trace : Trace.t option;
  profile : Profile.t option;
  critpath : Critpath.t option;
  log : Evlog.t option;   (* written when a trace or a critpath observes *)
  (* machine-metric sampling state; [next_sample_ps] is [max_int] when
     profiling is off, so the hot path pays one compare *)
  mutable next_sample_ps : int;
  mutable mesh_busy_ps : int;       (* accumulated link-traversal ps *)
  mutable samp_l1_hits : int;
  mutable samp_l1_misses : int;
  mutable samp_mesh_ps : int;
  mutable samp_last_ts : int;
  core_freq_mhz : int array;   (* per-core DVFS state, tile-granular *)
  (* Per-event timing constants, precomputed so the hot path never
     divides or searches: picoseconds per core cycle (tracks DVFS),
     each core's nearest memory controller and one-way mesh times. *)
  ps_core : int array;              (* ps per core cycle, per core *)
  mc_of : int array;                (* nearest MC index, per core *)
  mc_out_ps : int array;            (* one-way mesh ps to that MC *)
  shared_out_ps : int array array;  (* [core].(mc) one-way mesh ps *)
  core_out_ps : int array array;    (* [core].(core) one-way mesh ps *)
  mc_service_ps : int;
  dram_access_ps : int;
  mesh_transfer_ps : int;
  (* Ready-queue: one binary min-heap of (local time, ctx id) snapshots
     with lazy deletion — an entry is live only while its context is
     still Ready at exactly the recorded time.  Keyed so that heap order
     equals a linear scan's tie-break: smaller time first, then smaller
     context id. *)
  heap : heap;
  lookahead_ps : int;          (* minimum inter-tile hop latency *)
  (* Contexts made Ready since the last scheduling decision; the run loop
     pushes them into the heap — except the one it resumes next, which
     skips the heap round trip entirely. *)
  mutable just_ready : ctx list;
  mutable shared_cores : int list;  (* cores with more than one context *)
}

and heap = {
  mutable hnow : int array;
  mutable hid : int array;
  mutable hlen : int;
}

let heap_make () = { hnow = Array.make 64 0; hid = Array.make 64 0; hlen = 0 }

let create ?(cfg = Config.default) ?trace ?profile ?critpath () =
  let n = Config.n_cores cfg in
  let mesh = Mesh.create cfg in
  let lookahead_ps = Mesh.min_hop_ps mesh in
  Option.iter
    (fun cp ->
      Critpath.set_machine cp ~cores:n
        ~cores_per_tile:cfg.Config.cores_per_tile ~lookahead_ps)
    critpath;
  (* a trace and a critpath read one log, capped at the smaller limit *)
  let log =
    match trace, critpath with
    | None, None -> None
    | Some tr, None -> Some (Trace.log tr)
    | None, Some cp -> Some (Critpath.log cp)
    | Some tr, Some cp ->
        let a = Trace.log tr and b = Critpath.log cp in
        let log = if a.Evlog.limit <= b.Evlog.limit then a else b in
        Trace.share_log tr log;
        Critpath.share_log cp log;
        Some log
  in
  {
    cfg;
    mesh;
    memmap = Memmap.create cfg;
    ctx_arr = [||];
    n_ctx = 0;
    procs =
      Array.init n (fun _ ->
          { free_at = 0; last_ctx = -1; ctx_count = 0; slice_end = 0 });
    l1 =
      Array.init n (fun _ ->
          Cache.create ~size_bytes:cfg.Config.l1_bytes
            ~line_bytes:cfg.Config.line_bytes ~assoc:cfg.Config.l1_assoc);
    l2 =
      Array.init n (fun _ ->
          Cache.create ~size_bytes:cfg.Config.l2_bytes
            ~line_bytes:cfg.Config.line_bytes ~assoc:cfg.Config.l2_assoc);
    mc_free_at = Array.make cfg.Config.n_mcs 0;
    mc_busy_ps = Array.make cfg.Config.n_mcs 0;
    mc_requests = Array.make cfg.Config.n_mcs 0;
    mpb_free_at = Array.make n 0;
    barrier_waiting = [];
    n_barrier_waiting = 0;
    n_barrier_members = 0;
    counted_barriers = Hashtbl.create 8;
    flags = Hashtbl.create 16;
    n_join_waiting = 0;
    locks =
      Array.init n (fun _ ->
          { held_by = None; free_time = 0; free_ev = -1;
            waiters = Queue.create () });
    n_finished = 0;
    started = false;
    n_events = 0;
    trace;
    profile;
    critpath;
    log;
    next_sample_ps =
      (match profile with
      | None -> max_int
      | Some p -> Profile.sample_interval_ps p);
    mesh_busy_ps = 0;
    samp_l1_hits = 0;
    samp_l1_misses = 0;
    samp_mesh_ps = 0;
    samp_last_ts = 0;
    core_freq_mhz = Array.make n cfg.Config.core_freq_mhz;
    ps_core = Array.make n (Config.ps_per_cycle cfg.Config.core_freq_mhz);
    mc_of = Array.init n (fun core -> Mesh.mc_of_core mesh core);
    mc_out_ps =
      Array.init n (fun core ->
          let mc = Mesh.mc_of_core mesh core in
          Mesh.traverse_ps mesh ~hops:(Mesh.hops_core_to_mc mesh ~core ~mc));
    shared_out_ps =
      Array.init n (fun core ->
          Array.init cfg.Config.n_mcs (fun mc ->
              Mesh.traverse_ps mesh
                ~hops:(Mesh.hops_core_to_mc mesh ~core ~mc)));
    core_out_ps =
      Array.init n (fun from_core ->
          Array.init n (fun to_core ->
              Mesh.traverse_ps mesh
                ~hops:(Mesh.hops_core_to_core mesh ~from_core ~to_core)));
    mc_service_ps = Config.dram_cycles_ps cfg cfg.Config.mc_service_cycles;
    dram_access_ps = Config.dram_cycles_ps cfg cfg.Config.dram_access_cycles;
    mesh_transfer_ps =
      Config.mesh_cycles_ps cfg cfg.Config.mesh_cycles_per_hop;
    heap = heap_make ();
    lookahead_ps;
    just_ready = [];
    shared_cores = [];
  }

let cfg t = t.cfg

let trace t = t.trace

let profile t = t.profile

let critpath t = t.critpath

(* One machine-metric sample at simulated time [now]: L1 hit rate, memory
   controller queue depths and mesh link utilization, each measured over
   the window since the previous sample. *)
let take_samples t p now =
  let hits = ref 0 and misses = ref 0 in
  Array.iter
    (fun c ->
      hits := !hits + Cache.hits c;
      misses := !misses + Cache.misses c)
    t.l1;
  let dh = !hits - t.samp_l1_hits and dm = !misses - t.samp_l1_misses in
  t.samp_l1_hits <- !hits;
  t.samp_l1_misses <- !misses;
  let rate =
    if dh + dm = 0 then 1.0 else float_of_int dh /. float_of_int (dh + dm)
  in
  Profile.sample p ~ts:now ~name:"l1 hit rate" ~series:[ ("rate", rate) ];
  let depths = ref [] in
  for mc = Array.length t.mc_free_at - 1 downto 0 do
    let free_at = t.mc_free_at.(mc) in
    let depth =
      if free_at > now then
        float_of_int (free_at - now) /. float_of_int t.mc_service_ps
      else 0.0
    in
    depths := (Printf.sprintf "mc%d" mc, depth) :: !depths
  done;
  Profile.sample p ~ts:now ~name:"mc queue depth" ~series:!depths;
  let window = now - t.samp_last_ts in
  let dmesh = t.mesh_busy_ps - t.samp_mesh_ps in
  t.samp_mesh_ps <- t.mesh_busy_ps;
  let util =
    if window <= 0 then 0.0
    else float_of_int dmesh /. float_of_int window
  in
  Profile.sample p ~ts:now ~name:"mesh utilization"
    ~series:[ ("links-busy", util) ];
  t.samp_last_ts <- now;
  t.next_sample_ps <- now + Profile.sample_interval_ps p

(* Every local-clock advance funnels through here: [dur] ps of [cat]
   ending at [end_ps] go into the event log, stamped with the profiler's
   current frame and [pred], the event the advance causally waited on
   (-1 = program order only); the slice categories are also charged to
   the profiler. *)
let advance t ctx cat ~dur ~end_ps ~pred =
  (match t.log with
  | None -> ()
  | Some log ->
      let fn, line =
        match t.profile with
        | None -> (0, 0)
        | Some p ->
            ( Profile.current_fn_slot p ~ctx:ctx.id,
              Profile.current_line_slot p ~ctx:ctx.id )
      in
      Evlog.record log ~ctx:ctx.id ~core:ctx.core ~cat ~dur ~end_ps ~fn ~line
        ~pred);
  match t.profile with
  | Some p when Evlog.is_slice cat ->
      Profile.charge p ~ctx:ctx.id ~cat dur;
      if end_ps >= t.next_sample_ps then take_samples t p end_ps
  | _ -> ()

(* The latest logged event of a context: the [pred] handle for edges. *)
let last_event t id =
  match t.log with None -> -1 | Some log -> Evlog.last_event log ~ctx:id

let memmap t = t.memmap
let mesh t = t.mesh

let n_ctxs t = t.n_ctx

let events t = t.n_events

(* --- the ready heap ------------------------------------------------------ *)

(* Strict total order on (time, ctx id): with distinct context ids no two
   live keys compare equal, so a heap's minimum is unique and pop order
   is independent of insertion order — the property that keeps scheduling
   bit-identical to the old fold over the context array. *)
let heap_less h i j =
  h.hnow.(i) < h.hnow.(j)
  || (h.hnow.(i) = h.hnow.(j) && h.hid.(i) < h.hid.(j))

let heap_swap h i j =
  let n = h.hnow.(i) and d = h.hid.(i) in
  h.hnow.(i) <- h.hnow.(j);
  h.hid.(i) <- h.hid.(j);
  h.hnow.(j) <- n;
  h.hid.(j) <- d

let heap_push h ~now ~id =
  let cap = Array.length h.hnow in
  if h.hlen = cap then begin
    let bigger_now = Array.make (2 * cap) 0 in
    let bigger_id = Array.make (2 * cap) 0 in
    Array.blit h.hnow 0 bigger_now 0 cap;
    Array.blit h.hid 0 bigger_id 0 cap;
    h.hnow <- bigger_now;
    h.hid <- bigger_id
  end;
  let i = h.hlen in
  h.hnow.(i) <- now;
  h.hid.(i) <- id;
  h.hlen <- h.hlen + 1;
  let rec up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if heap_less h i parent then begin
        heap_swap h i parent;
        up parent
      end
    end
  in
  up i

(* Remove the root; caller checks liveness. *)
let heap_pop_root h =
  h.hlen <- h.hlen - 1;
  if h.hlen > 0 then begin
    h.hnow.(0) <- h.hnow.(h.hlen);
    h.hid.(0) <- h.hid.(h.hlen);
    let rec down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let smallest = ref i in
      if l < h.hlen && heap_less h l !smallest then smallest := l;
      if r < h.hlen && heap_less h r !smallest then smallest := r;
      if !smallest <> i then begin
        heap_swap h i !smallest;
        down !smallest
      end
    in
    down 0
  end

(* Drop stale roots until the root is live (the context is still Ready at
   exactly the recorded time); the heap's live minimum is then at the
   root.  Returns false when the heap ran empty. *)
let heap_settle t h =
  let rec go () =
    if h.hlen = 0 then false
    else begin
      let c = t.ctx_arr.(h.hid.(0)) in
      if c.status = Ready && c.now = h.hnow.(0) then true
      else begin
        heap_pop_root h;
        go ()
      end
    end
  in
  go ()

(* Record that [ctx] is runnable at its current local time.  The context
   is stashed rather than pushed: the run loop pushes stashed contexts
   into the heap, except the one it resumes immediately — which is the
   common case on a quantum-sliced shared core and skips the heap round
   trip entirely. *)
let ready_enqueue t ctx = t.just_ready <- ctx :: t.just_ready

(* Move stashed ready contexts into the heap; [except] (physical
   identity, the context about to be resumed) skips it. *)
let flush_ready t except =
  match t.just_ready with
  | [] -> ()
  | cs ->
      t.just_ready <- [];
      List.iter
        (fun c ->
          if c != except then heap_push t.heap ~now:c.now ~id:c.id)
        cs

let no_ctx : ctx =
  { id = -1; core = 0; barrier_member = false;
    stats = Stats.create_ctx (); now = 0; status = Finished;
    pending = None; joiners = [] }

let add_ctx t ~core ~barrier_member ~now =
  if core < 0 || core >= Config.n_cores t.cfg then
    invalid_arg "Engine: core out of range";
  let ctx =
    { id = t.n_ctx; core; barrier_member; stats = Stats.create_ctx ();
      now; status = Ready; pending = None; joiners = [] }
  in
  let cap = Array.length t.ctx_arr in
  if t.n_ctx = cap then begin
    (* amortized-O(1) growth; the fresh context doubles as filler for the
       slots beyond [n_ctx], which are never read *)
    let bigger = Array.make (max 8 (2 * cap)) ctx in
    Array.blit t.ctx_arr 0 bigger 0 t.n_ctx;
    t.ctx_arr <- bigger
  end;
  t.ctx_arr.(t.n_ctx) <- ctx;
  t.n_ctx <- t.n_ctx + 1;
  if barrier_member then t.n_barrier_members <- t.n_barrier_members + 1;
  let proc = t.procs.(core) in
  proc.ctx_count <- proc.ctx_count + 1;
  if proc.ctx_count = 2 then t.shared_cores <- core :: t.shared_cores;
  ready_enqueue t ctx;
  ctx

(* --- timing helpers ----------------------------------------------------- *)

let cc t n = Config.core_cycles_ps t.cfg n

(* Core cycles at the context's core's *current* frequency — the SCC's
   DVFS changes per-domain clocks at run time (section 5.1). *)
let ccx t ctx n = n * t.ps_core.(ctx.core)

(* Acquire the context's core pipeline: returns the issue time of the
   next operation, honouring the serial core resource and the
   context-switch penalty when the core is shared.  Advances [ctx.now] to
   the issue time so latency computations (memory-controller queuing in
   particular) start from when the operation actually issues. *)
let acquire_processor t ctx =
  let proc = t.procs.(ctx.core) in
  let start = max ctx.now proc.free_at in
  let start =
    if proc.ctx_count > 1 && proc.last_ctx <> ctx.id then begin
      ctx.stats.Stats.context_switches <-
        ctx.stats.Stats.context_switches + 1;
      let start = start + ccx t ctx t.cfg.Config.context_switch_cycles in
      proc.slice_end <- start + ccx t ctx t.cfg.Config.quantum_cycles;
      start
    end
    else start
  in
  (* the issue delay — core busy with another context plus the switch
     penalty — is scheduler wait, enabled by the previous owner's last
     event *)
  if start > ctx.now then
    advance t ctx Evlog.Sched_wait ~dur:(start - ctx.now) ~end_ps:start
      ~pred:
        (if proc.last_ctx >= 0 && proc.last_ctx <> ctx.id then
           last_event t proc.last_ctx
         else -1);
  proc.last_ctx <- ctx.id;
  ctx.now <- start;
  start

(* Hold the core from the issue time until [until]. *)
let occupy_processor t ctx ~until =
  t.procs.(ctx.core).free_at <- until;
  ctx.now <- until

(* A pure-compute burst of [dur] picoseconds.  On a shared core the OS
   preempts every quantum, so a long burst pays a switch per expired time
   slice — keeping the Pthread baseline's overhead independent of how
   coarsely workloads batch their compute effects. *)
let charge_compute t ctx dur =
  let proc = t.procs.(ctx.core) in
  let start = acquire_processor t ctx in
  let dur =
    if proc.ctx_count > 1 then begin
      let quantum_ps = ccx t ctx t.cfg.Config.quantum_cycles in
      let switch_ps = ccx t ctx t.cfg.Config.context_switch_cycles in
      let slices = dur / quantum_ps in
      ctx.stats.Stats.context_switches <-
        ctx.stats.Stats.context_switches + slices;
      dur + (slices * switch_ps)
    end
    else dur
  in
  occupy_processor t ctx ~until:(start + dur);
  advance t ctx Evlog.Compute ~dur ~end_ps:(start + dur) ~pred:(-1)

(* --- memory system ------------------------------------------------------ *)

(* Round trip to a memory controller for one line, with FIFO queuing.
   Returns the completion time of the data return. *)
let mc_round_trip t ~mc ~arrive =
  let service = t.mc_service_ps in
  let start = max arrive t.mc_free_at.(mc) in
  t.mc_free_at.(mc) <- start + service;
  t.mc_busy_ps.(mc) <- t.mc_busy_ps.(mc) + service;
  t.mc_requests.(mc) <- t.mc_requests.(mc) + 1;
  start + service + t.dram_access_ps

(* A cacheable private-DRAM access of one line. *)
let private_line t ctx ~write addr =
  let cs = ctx.stats in
  let r1 = Cache.access_code t.l1.(ctx.core) ~write addr in
  if r1 = Cache.hit then begin
    cs.Stats.l1_hits <- cs.Stats.l1_hits + 1;
    ccx t ctx t.cfg.Config.l1_hit_cycles
  end
  else begin
    cs.Stats.l1_misses <- cs.Stats.l1_misses + 1;
    let r2 = Cache.access_code t.l2.(ctx.core) ~write:false addr in
    if r2 = Cache.hit then begin
      cs.Stats.l2_hits <- cs.Stats.l2_hits + 1;
      ccx t ctx (t.cfg.Config.l1_hit_cycles + t.cfg.Config.l2_hit_cycles)
    end
    else begin
      cs.Stats.l2_misses <- cs.Stats.l2_misses + 1;
      cs.Stats.private_dram_lines <- cs.Stats.private_dram_lines + 1;
      let mc = t.mc_of.(ctx.core) in
      let out = t.mc_out_ps.(ctx.core) in
      t.mesh_busy_ps <- t.mesh_busy_ps + (2 * out);
      (match t.critpath with
      | None -> ()
      | Some cp -> Critpath.note_mesh cp ~ctx:ctx.id (2 * out));
      let base = ccx t ctx t.cfg.Config.dram_base_cycles in
      let arrive = ctx.now + base + out in
      let back = mc_round_trip t ~mc ~arrive in
      (* dirty victim writeback occupies the controller but does not
         block the core *)
      if r1 = Cache.miss_evict_dirty || r2 = Cache.miss_evict_dirty
      then begin
        let service = t.mc_service_ps in
        t.mc_free_at.(mc) <- t.mc_free_at.(mc) + service;
        t.mc_busy_ps.(mc) <- t.mc_busy_ps.(mc) + service
      end;
      back + out - ctx.now
    end
  end

(* An uncacheable shared-DRAM access of one line: full round trip every
   time; controllers are line-interleaved so heavy traffic spreads over
   all four and still saturates them at high core counts.  With
   [posted_shared_writes], a store retires after the issue cost while its
   controller occupancy is still booked (the SCC's write-combine
   buffer). *)
let shared_line t ctx ~write addr =
  ctx.stats.Stats.shared_dram_lines <- ctx.stats.Stats.shared_dram_lines + 1;
  if write then
    ctx.stats.Stats.shared_dram_stores <- ctx.stats.Stats.shared_dram_stores + 1
  else
    ctx.stats.Stats.shared_dram_loads <- ctx.stats.Stats.shared_dram_loads + 1;
  let line = Memmap.offset_of_addr addr / t.cfg.Config.line_bytes in
  let mc = line mod t.cfg.Config.n_mcs in
  let out = t.shared_out_ps.(ctx.core).(mc) in
  t.mesh_busy_ps <- t.mesh_busy_ps + (2 * out);
  (match t.critpath with
  | None -> ()
  | Some cp -> Critpath.note_mesh cp ~ctx:ctx.id (2 * out));
  let base = ccx t ctx t.cfg.Config.dram_base_cycles in
  let arrive = ctx.now + base + out in
  let back = mc_round_trip t ~mc ~arrive in
  if write && t.cfg.Config.posted_shared_writes then base + out
  else back + out - ctx.now

(* An MPB access of one line: base cost, mesh round trip to the owning
   tile, one transfer slot at the owning slice's port. *)
let mpb_line t ctx ~write:_ ~owner _addr =
  ctx.stats.Stats.mpb_lines <- ctx.stats.Stats.mpb_lines + 1;
  let out = t.core_out_ps.(ctx.core).(owner) in
  t.mesh_busy_ps <- t.mesh_busy_ps + (2 * out);
  (match t.critpath with
  | None -> ()
  | Some cp -> Critpath.note_mesh cp ~ctx:ctx.id (2 * out));
  let base = ccx t ctx t.cfg.Config.mpb_base_cycles in
  let transfer = t.mesh_transfer_ps in
  let arrive = ctx.now + base + out in
  let start = max arrive t.mpb_free_at.(owner) in
  t.mpb_free_at.(owner) <- start + transfer;
  start + transfer + out - ctx.now

(* One line's worth of memory access: issue when the core is free (the
   latency functions measure queuing from the true issue time), then
   block the core for the round trip (in-order P54C, no overlap). *)
let charge_access t ctx ~write addr =
  let cs = ctx.stats in
  if write then cs.Stats.stores <- cs.Stats.stores + 1
  else cs.Stats.loads <- cs.Stats.loads + 1;
  let before = ctx.now in
  let start = acquire_processor t ctx in
  (* decode the region inline — the [Memmap.region] variant would box
     the owning core on every access *)
  let kind = (addr lsr 40) land 0x3 in
  let dur =
    match kind with
    | 0 -> private_line t ctx ~write addr
    | 1 -> shared_line t ctx ~write addr
    | 2 -> mpb_line t ctx ~write ~owner:((addr lsr 32) land 0xff) addr
    | _ -> invalid_arg "Engine.charge_access: bad address"
  in
  occupy_processor t ctx ~until:(start + dur);
  advance t ctx
    (match kind with
     | 0 -> Evlog.Mem_private
     | 1 -> Evlog.Mem_shared
     | _ -> Evlog.Mem_mpb)
    ~dur ~end_ps:(start + dur) ~pred:(-1);
  cs.Stats.mem_stall_ps <- cs.Stats.mem_stall_ps + (ctx.now - before)

(* --- synchronization ---------------------------------------------------- *)

let barrier_group_size t = t.n_barrier_members

let barrier_cost t = cc t t.cfg.Config.mpb_base_cycles

(* Release every waiter of a full barrier at the propagation time.
   [key] identifies the barrier for the profiler's imbalance table: a
   counted-barrier id, or [-1] for the global barrier. *)
let release_barrier_waiters t ~key waiters =
  let release =
    List.fold_left (fun acc (c, _) -> max acc c.now) 0 waiters
    + barrier_cost t
  in
  (match t.profile with
  | None -> ()
  | Some p ->
      let first =
        List.fold_left (fun acc (c, _) -> min acc c.now) max_int waiters
      in
      let last = release - barrier_cost t in
      Profile.barrier_episode p ~key ~spread_ps:(max 0 (last - first)));
  (* every waiter's release is enabled by the last arriver: capture its
     latest event before the release intervals overwrite the cursors *)
  let last_arriver =
    List.fold_left
      (fun acc (c, _) ->
        if acc == no_ctx || c.now > acc.now
           || (c.now = acc.now && c.id < acc.id)
        then c
        else acc)
      no_ctx waiters
  in
  let pred =
    if last_arriver == no_ctx then -1 else last_event t last_arriver.id
  in
  List.iter
    (fun (c, k) ->
      c.stats.Stats.barrier_wait_ps <-
        c.stats.Stats.barrier_wait_ps + (release - c.now);
      advance t c Evlog.Barrier_wait ~dur:(release - c.now) ~end_ps:release
        ~pred;
      c.now <- release;
      c.status <- Ready;
      c.pending <- Some (Cont k);
      ready_enqueue t c)
    waiters

let arrive_barrier t ctx k =
  t.barrier_waiting <- (ctx, k) :: t.barrier_waiting;
  t.n_barrier_waiting <- t.n_barrier_waiting + 1;
  if t.n_barrier_waiting = barrier_group_size t then begin
    release_barrier_waiters t ~key:(-1) t.barrier_waiting;
    t.barrier_waiting <- [];
    t.n_barrier_waiting <- 0
  end
  else begin
    ctx.status <- Parked;
    ctx.pending <- Some (Cont k)
  end

let park_ready t ctx k =
  ctx.status <- Ready;
  ctx.pending <- Some (Cont k);
  ready_enqueue t ctx

(* A counted barrier: like the global barrier but over an explicit group
   size, keyed by barrier id (pthread_barrier_t instances, sub-groups). *)
let arrive_barrier_n t ctx ~id ~count k =
  if count < 1 then invalid_arg "Engine: barrier group must be positive";
  let cell =
    match Hashtbl.find_opt t.counted_barriers id with
    | Some cell -> cell
    | None ->
        let cell = { cb_arrived = 0; cb_waiters = [] } in
        Hashtbl.replace t.counted_barriers id cell;
        cell
  in
  cell.cb_waiters <- (ctx, k) :: cell.cb_waiters;
  cell.cb_arrived <- cell.cb_arrived + 1;
  if cell.cb_arrived >= count then begin
    release_barrier_waiters t ~key:id cell.cb_waiters;
    cell.cb_waiters <- [];
    cell.cb_arrived <- 0
  end
  else begin
    ctx.status <- Parked;
    ctx.pending <- Some (Cont k)
  end

let get_flag t id =
  match Hashtbl.find_opt t.flags id with
  | Some f -> f
  | None ->
      let f = { value = false; set_time = 0; set_ev = -1; flag_waiters = [] } in
      Hashtbl.replace t.flags id f;
      f

(* Writing a flag costs an MPB access; a set wakes every waiter at the
   propagation time. *)
let do_flag_set t ctx id value k =
  let f = get_flag t id in
  let before = ctx.now in
  ctx.now <- ctx.now + ccx t ctx t.cfg.Config.mpb_base_cycles;
  advance t ctx Evlog.Sync ~dur:(ctx.now - before) ~end_ps:ctx.now
    ~pred:(-1);
  f.set_ev <- last_event t ctx.id;
  f.value <- value;
  f.set_time <- ctx.now;
  if value then begin
    List.iter
      (fun (w, wk) ->
        let wbefore = w.now in
        w.now <- max w.now ctx.now + ccx t w t.cfg.Config.mpb_base_cycles;
        advance t w Evlog.Sync ~dur:(w.now - wbefore) ~end_ps:w.now
          ~pred:f.set_ev;
        w.status <- Ready;
        w.pending <- Some (Cont wk);
        ready_enqueue t w)
      f.flag_waiters;
    f.flag_waiters <- []
  end;
  park_ready t ctx k

let do_flag_wait t ctx id k =
  let f = get_flag t id in
  if f.value then begin
    let before = ctx.now in
    ctx.now <-
      max ctx.now f.set_time + ccx t ctx t.cfg.Config.mpb_base_cycles;
    advance t ctx Evlog.Sync ~dur:(ctx.now - before) ~end_ps:ctx.now
      ~pred:f.set_ev;
    park_ready t ctx k
  end
  else begin
    ctx.status <- Parked;
    ctx.pending <- Some (Cont k);
    f.flag_waiters <- (ctx, k) :: f.flag_waiters
  end

(* Test-and-set register access cost: a round trip to the register's
   core. *)
let lock_cost t ctx lock_id =
  let hops =
    Mesh.hops_core_to_core t.mesh ~from_core:ctx.core ~to_core:lock_id
  in
  ccx t ctx t.cfg.Config.mpb_base_cycles
  + (2 * Mesh.traverse_ps t.mesh ~hops)

let do_acquire t ctx lock_id k =
  let lock = t.locks.(lock_id) in
  match lock.held_by with
  | None ->
      lock.held_by <- Some ctx.id;
      let before = ctx.now in
      ctx.now <- max ctx.now lock.free_time + lock_cost t ctx lock_id;
      (* uncontended: the test-and-set round trip, plus any wait for the
         register to come free after the previous release *)
      advance t ctx Evlog.Sync ~dur:(ctx.now - before) ~end_ps:ctx.now
        ~pred:(if lock.free_time > before then lock.free_ev else -1);
      (match t.profile with
      | None -> ()
      | Some p ->
          Profile.lock_acquired p ~lock:lock_id ~wait_ps:0 ~holder:(-1));
      ctx.status <- Ready;
      ctx.pending <- Some (Cont k);
      ready_enqueue t ctx
  | Some _ ->
      ctx.status <- Parked;
      ctx.pending <- Some (Cont k);
      Queue.add (ctx, k) lock.waiters

let do_release t ctx lock_id k =
  let lock = t.locks.(lock_id) in
  (match lock.held_by with
  | Some owner when owner = ctx.id -> ()
  | Some _ | None ->
      invalid_arg
        (Printf.sprintf
           "Engine: context %d releases lock %d it does not hold" ctx.id
           lock_id));
  let before = ctx.now in
  ctx.now <- ctx.now + lock_cost t ctx lock_id;
  lock.free_time <- ctx.now;
  (* the releaser's register round trip, then remember the release event:
     it is the holder edge for whoever wakes (or next acquires) *)
  advance t ctx Evlog.Sync ~dur:(ctx.now - before) ~end_ps:ctx.now
    ~pred:(-1);
  lock.free_ev <- last_event t ctx.id;
  (match Queue.take_opt lock.waiters with
  | None -> lock.held_by <- None
  | Some (waiter, wk) ->
      lock.held_by <- Some waiter.id;
      let wake =
        max waiter.now lock.free_time + lock_cost t waiter lock_id
      in
      waiter.stats.Stats.lock_wait_ps <-
        waiter.stats.Stats.lock_wait_ps + (wake - waiter.now);
      advance t waiter Evlog.Lock_wait ~dur:(wake - waiter.now) ~end_ps:wake
        ~pred:lock.free_ev;
      (match t.profile with
      | None -> ()
      | Some p ->
          Profile.lock_acquired p ~lock:lock_id
            ~wait_ps:(wake - waiter.now) ~holder:ctx.id);
      waiter.now <- wake;
      waiter.status <- Ready;
      waiter.pending <- Some (Cont wk);
      ready_enqueue t waiter);
  ctx.status <- Ready;
  ctx.pending <- Some (Cont k);
  ready_enqueue t ctx

let finish_ctx t ctx =
  ctx.status <- Finished;
  ctx.stats.Stats.finish_ps <- ctx.now;
  t.n_finished <- t.n_finished + 1;
  (* wake joiners, recorded on the finished context itself *)
  List.iter
    (fun (waiter, k) ->
      t.n_join_waiting <- t.n_join_waiting - 1;
      let before = waiter.now in
      waiter.now <- max waiter.now ctx.now;
      advance t waiter Evlog.Sync ~dur:(waiter.now - before)
        ~end_ps:waiter.now ~pred:(last_event t ctx.id);
      waiter.status <- Ready;
      waiter.pending <- Some (Cont k);
      ready_enqueue t waiter)
    ctx.joiners;
  ctx.joiners <- []

(* --- the scheduler ------------------------------------------------------ *)

(* Cost of creating a process/thread context, charged to the parent. *)
let spawn_cost_cycles = 2_000

(* One scheduler event; the LBTS window view (measurement only, no
   scheduling effect) sees it when a critpath is attached. *)
let count_event t ctx =
  t.n_events <- t.n_events + 1;
  match t.critpath with
  | None -> ()
  | Some cp -> Critpath.note_event cp ~core:ctx.core ~now:ctx.now

(* Would the run loop, with [ctx] parked ready right now, pick [ctx]
   again as the very next context?  This emulates the scheduling
   decision exactly — slice owners always outrank heap contexts, and
   ties break on (local time, ctx id) — so continuing [ctx] in place
   preserves the event order bit for bit.  The check is conservative in
   one place only: it requires the ready-stash to be empty and, when
   [ctx] is alone on its core, compares against the *settled* heap
   root.  Stale roots always carry an earlier snapshot time than
   their context's true time, so settling (which the real pick also
   does) never changes the answer; a [false] merely forfeits the
   shortcut, never correctness. *)
let fast_self_pick t ctx =
  (match t.just_ready with [] -> true | _ :: _ -> false)
  &&
  let proc = t.procs.(ctx.core) in
  if proc.ctx_count > 1 then
    (* shared core: [ctx] must still own its slice and beat every other
       eligible slice owner on (time, id) — mirrors [slice_pick] *)
    proc.last_ctx = ctx.id
    && ctx.now <= proc.slice_end
    && List.for_all
         (fun core ->
           core = ctx.core
           ||
           let p = t.procs.(core) in
           p.last_ctx < 0
           ||
           let c = t.ctx_arr.(p.last_ctx) in
           c.status <> Ready || c.now > p.slice_end
           || ctx.now < c.now
           || (ctx.now = c.now && ctx.id < c.id))
         t.shared_cores
  else
    (* [ctx] alone on its core: no slice owner anywhere may be eligible
       (they would outrank it), and it must beat the heap's live
       minimum — mirrors [slice_pick] + [heap_pick] *)
    List.for_all
      (fun core ->
        let p = t.procs.(core) in
        p.last_ctx < 0
        ||
        let c = t.ctx_arr.(p.last_ctx) in
        c.status <> Ready || c.now > p.slice_end)
      t.shared_cores
    &&
    let h = t.heap in
    (not (heap_settle t h))
    ||
    let rn = h.hnow.(0) in
    ctx.now < rn || (ctx.now = rn && ctx.id < h.hid.(0))

let rec handler t ctx : (unit, unit) Effect.Deep.handler =
  (* One yield receiver per context, allocated once: the performer
     checked [fast_self_pick] before suspending and nothing mutates
     between that check and this park, so a performed [E_yield] always
     means "some other context must run next". *)
  let park : (unit, unit) Effect.Deep.continuation -> unit =
   fun k -> park_ready t ctx k
  in
  let park_opt = Some park in
  {
    Effect.Deep.retc = (fun () -> finish_ctx t ctx);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | E_yield ->
            (* the performer ([api.compute]/[load]/[store]) already
               applied the operation's charge; this is pure scheduling *)
            park_opt
        | E_barrier ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                arrive_barrier t ctx k)
        | E_acquire lock_id ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                do_acquire t ctx lock_id k)
        | E_release lock_id ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                do_release t ctx lock_id k)
        | E_now ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                Effect.Deep.continue k ctx.now)
        | E_spawn (core, program) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let dur = ccx t ctx spawn_cost_cycles in
                ctx.stats.Stats.compute_ps <-
                  ctx.stats.Stats.compute_ps + dur;
                charge_compute t ctx dur;
                let child = add_ctx t ~core ~barrier_member:false
                              ~now:ctx.now in
                (* the child's lane is idle from t=0 until the spawn:
                   pad it so its accounting also sums to the wall *)
                advance t child Evlog.Idle ~dur:child.now ~end_ps:child.now
                  ~pred:(last_event t ctx.id);
                let api = make_api t child in
                child.pending <- Some (Start (fun () -> program api));
                Effect.Deep.continue k child.id)
        | E_set_freq (core, mhz) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if mhz < 100 || mhz > 1000 then
                  invalid_arg "Engine: frequency outside 100..1000 MHz"
                else begin
                  (* DVFS is tile-granular on the SCC: both cores of the
                     tile change together *)
                  let tile_base =
                    core / t.cfg.Config.cores_per_tile
                    * t.cfg.Config.cores_per_tile
                  in
                  for c = tile_base
                      to tile_base + t.cfg.Config.cores_per_tile - 1 do
                    t.core_freq_mhz.(c) <- mhz;
                    t.ps_core.(c) <- Config.ps_per_cycle mhz
                  done;
                  (* the PLL relock stalls the caller briefly *)
                  charge_compute t ctx (ccx t ctx 1_000);
                  park_ready t ctx k
                end)
        | E_barrier_n (id, count) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                arrive_barrier_n t ctx ~id ~count k)
        | E_flag_set (id, value) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                do_flag_set t ctx id value k)
        | E_flag_wait id ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                do_flag_wait t ctx id k)
        | E_join target ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if target < 0 || target >= n_ctxs t then
                  invalid_arg "Engine: join of unknown context"
                else begin
                  let child = t.ctx_arr.(target) in
                  if child.status = Finished then begin
                    let before = ctx.now in
                    ctx.now <- max ctx.now child.now;
                    advance t ctx Evlog.Sync ~dur:(ctx.now - before)
                      ~end_ps:ctx.now ~pred:(last_event t child.id);
                    park_ready t ctx k
                  end
                  else begin
                    ctx.status <- Parked;
                    ctx.pending <- Some (Cont k);
                    child.joiners <- (ctx, k) :: child.joiners;
                    t.n_join_waiting <- t.n_join_waiting + 1
                  end
                end)
        | _ -> None);
  }

and make_api t ctx =
  let line = t.cfg.Config.line_bytes in
  (* Hot-path shortcut, mirroring the [E_compute]/[E_access] handler
     arms: apply the operation's charge first, then — when the
     scheduler would provably pick this context again — account for the
     event in place and return, performing no effect at all (no
     continuation is reified, no stack grows).  Otherwise yield to the
     scheduler with the charge already applied.  The state mutations
     and their order are exactly those of the effect path, so the event
     stream is bit-identical either way. *)
  let settle () =
    if fast_self_pick t ctx then count_event t ctx
    else Effect.perform E_yield
  in
  (* a block access issues one scheduling point per line, so the
     scheduler can interleave other contexts' requests between them *)
  let access write addr ~bytes =
    let nlines = max 1 ((bytes + line - 1) / line) in
    for i = 0 to nlines - 1 do
      charge_access t ctx ~write (addr + (i * line));
      settle ()
    done
  in
  {
    self = ctx.id;
    nunits = n_ctxs t;
    core = ctx.core;
    compute =
      (fun n ->
        if n > 0 then begin
          let dur = ccx t ctx n in
          ctx.stats.Stats.compute_ps <- ctx.stats.Stats.compute_ps + dur;
          charge_compute t ctx dur;
          settle ()
        end);
    load = (fun addr ~bytes -> access false addr ~bytes);
    store = (fun addr ~bytes -> access true addr ~bytes);
    barrier = (fun () -> Effect.perform E_barrier);
    acquire = (fun lock_id -> Effect.perform (E_acquire lock_id));
    release = (fun lock_id -> Effect.perform (E_release lock_id));
    now_ps = (fun () -> Effect.perform E_now);
    spawn_child =
      (fun ~core program -> Effect.perform (E_spawn (core, program)));
    join = (fun target -> Effect.perform (E_join target));
    barrier_n =
      (fun ~id ~count -> Effect.perform (E_barrier_n (id, count)));
    flag_set = (fun ~id value -> Effect.perform (E_flag_set (id, value)));
    flag_wait = (fun ~id -> Effect.perform (E_flag_wait id));
    set_frequency =
      (fun ~core ~mhz -> Effect.perform (E_set_freq (core, mhz)));
  }

let spawn t ~core program =
  if t.started then
    invalid_arg "Engine.spawn: simulation already started (use spawn_child)";
  let ctx = add_ctx t ~core ~barrier_member:true ~now:0 in
  (* [make_api] runs inside the thunk, at first resume, so [api.nunits]
     sees every statically spawned context *)
  ctx.pending <- Some (Start (fun () -> program (make_api t ctx)));
  ctx.id

(* Slice preference: on a shared core the OS keeps the current thread
   running until its time slice expires.  At most one context per core
   can own the slice (it must be the core's [last_ctx]), so scanning the
   shared cores is O(#shared cores), not O(n).  Ties between slice
   owners on distinct cores break on the smaller local time, then the
   smaller ctx id — exactly the order the original left-to-right fold
   produced, since contexts are stored in id order.  This scan looks at
   context records directly, so it is correct whether or not the
   contexts have been pushed to a heap yet. *)
let slice_pick t =
  let best = ref no_ctx in
  List.iter
    (fun core ->
      let proc = t.procs.(core) in
      if proc.last_ctx >= 0 then begin
        let c = t.ctx_arr.(proc.last_ctx) in
        if c.status = Ready && c.now <= proc.slice_end then begin
          let b = !best in
          if
            b.id < 0 || c.now < b.now || (c.now = b.now && c.id < b.id)
          then best := c
        end
      end)
    t.shared_cores;
  !best

(* The live minimum of the heap by (time, id), after dropping stale
   roots. *)
let heap_pick t =
  let h = t.heap in
  if heap_settle t h then begin
    let c = t.ctx_arr.(h.hid.(0)) in
    heap_pop_root h;
    c
  end
  else no_ctx

let resume t ctx =
  count_event t ctx;
  ctx.status <- Running;
  match ctx.pending with
  | Some (Start main) ->
      ctx.pending <- None;
      Effect.Deep.match_with main () (handler t ctx)
  | Some (Cont k) ->
      ctx.pending <- None;
      Effect.Deep.continue k ()
  | None -> invalid_arg "Engine.resume: context has nothing to run"

let run t =
  if t.started then invalid_arg "Engine.run: simulation already started";
  t.started <- true;
  let rec loop () =
    (* scheduling policy: the runnable context with the smallest local
       time — except that a context still owning its shared core's time
       slice is preferred over switching *)
    let c = slice_pick t in
    if c.id >= 0 then begin
      flush_ready t c;
      resume t c;
      loop ()
    end
    else begin
      flush_ready t no_ctx;
      let c = heap_pick t in
      if c.id >= 0 then begin
        resume t c;
        loop ()
      end
      else if t.n_finished < n_ctxs t then
        raise
          (Deadlock
             (Printf.sprintf
                "%d of %d contexts parked with no runnable context \
                 (barrier waiting: %d, join waiting: %d)"
                (n_ctxs t - t.n_finished)
                (n_ctxs t)
                t.n_barrier_waiting t.n_join_waiting))
    end
  in
  if n_ctxs t > 0 then loop ();
  (* complete inclusive times for frames still open at the end *)
  Option.iter Profile.finalize t.profile;
  (* close the causal account: idle tails up to the wall and the nominal
     MPB line cost for the MPB-speed counterfactual *)
  match t.critpath with
  | None -> ()
  | Some cp ->
      let wall = ref 0 in
      for i = 0 to t.n_ctx - 1 do
        wall := max !wall t.ctx_arr.(i).stats.Stats.finish_ps
      done;
      let mpb_line_ps =
        cc t t.cfg.Config.mpb_base_cycles
        + (2 * t.lookahead_ps) + t.mesh_transfer_ps
      in
      Critpath.finalize cp ~wall_ps:!wall ~mpb_line_ps;
      (match t.profile with
      | None -> ()
      | Some p -> Critpath.register_metrics cp (Profile.registry p))

let stats t =
  {
    Stats.ctxs = Array.init t.n_ctx (fun i -> t.ctx_arr.(i).stats);
    mc_busy_ps = t.mc_busy_ps;
    mc_requests = t.mc_requests;
    domain_events = [| t.n_events |];
  }

let elapsed_ps t =
  let acc = ref 0 in
  for i = 0 to t.n_ctx - 1 do
    acc := max !acc t.ctx_arr.(i).stats.Stats.finish_ps
  done;
  !acc

let elapsed_ms t = float_of_int (elapsed_ps t) /. 1e9
