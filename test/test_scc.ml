(* The simulator substrate: cache model, address map, mesh, power model,
   and the discrete-event engine (determinism, barriers, locks, dynamic
   spawn/join, deadlock detection, contention behaviour). *)

(* --- cache -------------------------------------------------------------- *)

let read c addr = Scc.Cache.access_code c ~write:false addr

let code =
  Alcotest.testable
    (fun ppf c ->
      Format.pp_print_string ppf
        (if c = Scc.Cache.hit then "hit"
         else if c = Scc.Cache.miss then "miss"
         else if c = Scc.Cache.miss_evict_dirty then "miss_evict_dirty"
         else string_of_int c))
    ( = )

let test_cache_basics () =
  let c = Scc.Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:2 in
  Alcotest.check code "cold miss" Scc.Cache.miss (read c 0);
  Alcotest.check code "warm hit" Scc.Cache.hit (read c 0);
  Alcotest.check code "same line hits" Scc.Cache.hit (read c 16);
  Alcotest.check code "next line misses" Scc.Cache.miss (read c 32)

let test_cache_lru_eviction () =
  (* 2-way, 16 sets of 32B lines: three lines mapping to one set evict
     the least recently used *)
  let c = Scc.Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:2 in
  let set_stride = 16 * 32 in
  ignore (read c 0);
  ignore (read c set_stride);
  (* touch line 0 so line set_stride is LRU *)
  ignore (read c 0);
  ignore (read c (2 * set_stride));
  Alcotest.check code "MRU line survived" Scc.Cache.hit (read c 0);
  Alcotest.check code "LRU line evicted" Scc.Cache.miss (read c set_stride)

let test_cache_dirty_writeback () =
  let c = Scc.Cache.create ~size_bytes:64 ~line_bytes:32 ~assoc:1 in
  ignore (Scc.Cache.access_code c ~write:true 0);
  (* conflicting line in the same (single) set *)
  Alcotest.check code "dirty victim reported" Scc.Cache.miss_evict_dirty
    (read c 64)

let test_cache_flush_and_rates () =
  let c = Scc.Cache.create ~size_bytes:256 ~line_bytes:32 ~assoc:2 in
  ignore (read c 0);
  ignore (read c 0);
  Alcotest.(check (float 0.01)) "hit rate 1/2" 0.5 (Scc.Cache.hit_rate c);
  Scc.Cache.flush c;
  Alcotest.check code "flushed" Scc.Cache.miss (read c 0)

(* A reference true-LRU model: per set, a list of (tag, dirty) pairs with
   the most recently used first.  The flat cache must return the same
   code as this model on every access. *)
let reference_cache ~size_bytes ~line_bytes ~assoc =
  let set_count = size_bytes / line_bytes / assoc in
  let sets = Array.make set_count [] in
  let hits = ref 0 and misses = ref 0 in
  let access ~write addr =
    let la = addr / line_bytes in
    let s = la mod set_count and tag = la / set_count in
    let lines = sets.(s) in
    match List.assoc_opt tag lines with
    | Some dirty ->
        incr hits;
        sets.(s) <- (tag, dirty || write) :: List.remove_assoc tag lines;
        Scc.Cache.hit
    | None ->
        incr misses;
        let kept, victim_dirty =
          if List.length lines < assoc then (lines, false)
          else
            let rev = List.rev lines in
            (List.rev (List.tl rev), snd (List.hd rev))
        in
        sets.(s) <- (tag, write) :: kept;
        if victim_dirty then Scc.Cache.miss_evict_dirty else Scc.Cache.miss
  in
  (access, hits, misses)

let test_cache_matches_reference () =
  let geometries =
    [
      (64, 32, 1);
      (1024, 32, 2);
      Scc.Config.(default.l1_bytes, default.line_bytes, default.l1_assoc);
      Scc.Config.(default.l2_bytes, default.line_bytes, default.l2_assoc);
    ]
  in
  List.iter
    (fun (size_bytes, line_bytes, assoc) ->
      let name = Printf.sprintf "%d/%d/%d" size_bytes line_bytes assoc in
      let c = Scc.Cache.create ~size_bytes ~line_bytes ~assoc in
      let ref_access, ref_hits, ref_misses =
        reference_cache ~size_bytes ~line_bytes ~assoc
      in
      let rng = Random.State.make [| size_bytes; assoc |] in
      let span = 4 * size_bytes in
      for i = 1 to 20_000 do
        let addr = Random.State.int rng span in
        let write = Random.State.int rng 4 = 0 in
        let want = ref_access ~write addr in
        let got = Scc.Cache.access_code c ~write addr in
        if got <> want then
          Alcotest.check code
            (Printf.sprintf "%s access %d (addr %d, write %b)" name i addr
               write)
            want got
      done;
      Alcotest.(check int) (name ^ " hits") !ref_hits (Scc.Cache.hits c);
      Alcotest.(check int) (name ^ " misses") !ref_misses
        (Scc.Cache.misses c))
    geometries

let test_cache_bad_geometry () =
  match Scc.Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:5 with
  | _ -> Alcotest.fail "inconsistent geometry accepted"
  | exception Invalid_argument _ -> ()

(* --- memmap -------------------------------------------------------------- *)

let test_memmap_regions_roundtrip () =
  let mm = Scc.Memmap.create Scc.Config.default in
  let p = Scc.Memmap.alloc mm (Scc.Memmap.Private 7) ~bytes:100 in
  let s = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:100 in
  let m = Scc.Memmap.alloc mm (Scc.Memmap.Mpb 3) ~bytes:100 in
  Alcotest.(check bool) "private region" true
    (Scc.Memmap.region_of_addr p = Scc.Memmap.Private 7);
  Alcotest.(check bool) "shared region" true
    (Scc.Memmap.region_of_addr s = Scc.Memmap.Shared_dram);
  Alcotest.(check bool) "mpb region" true
    (Scc.Memmap.region_of_addr m = Scc.Memmap.Mpb 3)

let test_memmap_line_alignment () =
  let mm = Scc.Memmap.create Scc.Config.default in
  let a = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:1 in
  let b = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:1 in
  Alcotest.(check int) "line-aligned bump" 32
    (Scc.Memmap.offset_of_addr b - Scc.Memmap.offset_of_addr a)

let test_mpb_capacity_enforced () =
  let mm = Scc.Memmap.create Scc.Config.default in
  ignore (Scc.Memmap.alloc mm (Scc.Memmap.Mpb 0) ~bytes:(8 * 1024));
  match Scc.Memmap.alloc mm (Scc.Memmap.Mpb 0) ~bytes:32 with
  | _ -> Alcotest.fail "MPB slice overflow accepted"
  | exception Scc.Memmap.Out_of_memory (Scc.Memmap.Mpb 0) -> ()
  | exception Scc.Memmap.Out_of_memory _ -> Alcotest.fail "wrong region"

let test_mpb_striping () =
  let mm = Scc.Memmap.create Scc.Config.default in
  let chunks =
    Scc.Memmap.alloc_mpb_striped mm ~cores:[ 0; 1; 2; 3 ] ~bytes:4096
  in
  Alcotest.(check int) "four chunks" 4 (List.length chunks);
  List.iteri
    (fun i addr ->
      Alcotest.(check bool)
        (Printf.sprintf "chunk %d on core %d" i i)
        true
        (Scc.Memmap.region_of_addr addr = Scc.Memmap.Mpb i))
    chunks

(* --- mesh ----------------------------------------------------------------- *)

let test_mesh_hops () =
  let mesh = Scc.Mesh.create Scc.Config.default in
  Alcotest.(check int) "same tile" 0
    (Scc.Mesh.hops mesh ~from_tile:0 ~to_tile:0);
  Alcotest.(check int) "adjacent" 1
    (Scc.Mesh.hops mesh ~from_tile:0 ~to_tile:1);
  (* opposite corners of the 6x4 mesh: 5 + 3 *)
  Alcotest.(check int) "diagonal" 8
    (Scc.Mesh.hops mesh ~from_tile:0 ~to_tile:23)

let test_mesh_core_mapping () =
  let mesh = Scc.Mesh.create Scc.Config.default in
  Alcotest.(check int) "cores 0,1 on tile 0" 0 (Scc.Mesh.tile_of_core mesh 1);
  Alcotest.(check int) "cores 2,3 on tile 1" 1 (Scc.Mesh.tile_of_core mesh 2)

let test_mesh_mc_quadrants () =
  let mesh = Scc.Mesh.create Scc.Config.default in
  Alcotest.(check int) "4 controllers" 4 (Scc.Mesh.n_mcs mesh);
  (* corner cores map to their own corner's controller *)
  Alcotest.(check int) "core 0 -> MC 0" 0 (Scc.Mesh.mc_of_core mesh 0);
  let n = Scc.Config.n_cores Scc.Config.default in
  Alcotest.(check int) "last core -> MC 3" 3
    (Scc.Mesh.mc_of_core mesh (n - 1));
  (* every core maps to some controller at most 4 hops away *)
  for core = 0 to n - 1 do
    let mc = Scc.Mesh.mc_of_core mesh core in
    let hops = Scc.Mesh.hops_core_to_mc mesh ~core ~mc in
    if hops > 4 then
      Alcotest.failf "core %d is %d hops from its controller" core hops
  done

(* --- power ------------------------------------------------------------------ *)

let test_power_endpoints () =
  Alcotest.(check (float 0.5)) "low endpoint" 25.0
    (Scc.Power.chip_watts ~volts:0.7 ~freq_mhz:125 ());
  Alcotest.(check (float 0.5)) "high endpoint" 125.0
    (Scc.Power.chip_watts ~volts:1.14 ~freq_mhz:1000 ())

let test_power_monotone_energy () =
  let e8 =
    Scc.Power.energy_joules Scc.Config.default ~active_cores:8
      ~elapsed_ps:1_000_000_000
  in
  let e48 =
    Scc.Power.energy_joules Scc.Config.default ~active_cores:48
      ~elapsed_ps:1_000_000_000
  in
  Alcotest.(check bool) "more active cores, more energy" true (e48 > e8);
  Alcotest.(check bool) "positive" true (e8 > 0.0)

(* --- engine ------------------------------------------------------------------ *)

(* Building the engine for the default 48-core machine records cache
   geometry only; the per-core tag stores appear on first use.  A
   deterministic guard against materializing them up front again. *)
let test_engine_create_allocation () =
  let before = Gc.minor_words () in
  let eng = Scc.Engine.create () in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity eng);
  Alcotest.(check bool)
    (Printf.sprintf "Engine.create allocated %.0f minor words (< 100000)"
       words)
    true (words < 100_000.)

let test_engine_determinism () =
  let run_once () =
    let eng = Scc.Engine.create () in
    let mm = Scc.Engine.memmap eng in
    let sh = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:4096 in
    for core = 0 to 7 do
      ignore
        (Scc.Engine.spawn eng ~core (fun api ->
             api.Scc.Engine.compute (100 * (api.Scc.Engine.self + 1));
             api.Scc.Engine.store (sh + (api.Scc.Engine.self * 512)) ~bytes:512;
             api.Scc.Engine.barrier ();
             api.Scc.Engine.load sh ~bytes:512))
    done;
    Scc.Engine.run eng;
    Scc.Engine.elapsed_ps eng
  in
  Alcotest.(check int) "identical elapsed time" (run_once ()) (run_once ())

let test_engine_compute_timing () =
  let eng = Scc.Engine.create () in
  ignore
    (Scc.Engine.spawn eng ~core:0 (fun api -> api.Scc.Engine.compute 800));
  Scc.Engine.run eng;
  (* 800 cycles at 800 MHz = 1 us *)
  Alcotest.(check int) "800 cycles = 1us" 1_000_000 (Scc.Engine.elapsed_ps eng)

let test_engine_barrier_sync () =
  let eng = Scc.Engine.create () in
  let after = Array.make 2 0 in
  for core = 0 to 1 do
    ignore
      (Scc.Engine.spawn eng ~core (fun api ->
           api.Scc.Engine.compute (if api.Scc.Engine.self = 0 then 100 else 10_000);
           api.Scc.Engine.barrier ();
           after.(api.Scc.Engine.self) <- api.Scc.Engine.now_ps ()))
  done;
  Scc.Engine.run eng;
  Alcotest.(check int) "both leave the barrier together" after.(0) after.(1);
  Alcotest.(check bool) "after the slow one arrived" true
    (after.(0) >= Scc.Config.core_cycles_ps Scc.Config.default 10_000)

let test_engine_lock_mutual_exclusion () =
  let eng = Scc.Engine.create () in
  let in_section = ref 0 in
  let max_seen = ref 0 in
  for core = 0 to 3 do
    ignore
      (Scc.Engine.spawn eng ~core (fun api ->
           for _ = 1 to 5 do
             api.Scc.Engine.acquire 0;
             incr in_section;
             max_seen := max !max_seen !in_section;
             api.Scc.Engine.compute 500;
             decr in_section;
             api.Scc.Engine.release 0
           done))
  done;
  Scc.Engine.run eng;
  Alcotest.(check int) "never two holders" 1 !max_seen

let test_engine_release_without_hold () =
  let eng = Scc.Engine.create () in
  ignore (Scc.Engine.spawn eng ~core:0 (fun api -> api.Scc.Engine.release 0));
  match Scc.Engine.run eng with
  | _ -> Alcotest.fail "release without acquire should fail"
  | exception Invalid_argument _ -> ()

let test_engine_deadlock_detected () =
  let eng = Scc.Engine.create () in
  (* two members, but only one reaches the barrier *)
  ignore (Scc.Engine.spawn eng ~core:0 (fun api -> api.Scc.Engine.barrier ()));
  ignore
    (Scc.Engine.spawn eng ~core:1 (fun api ->
         api.Scc.Engine.acquire 5;
         api.Scc.Engine.acquire 5 (* self-deadlock *)));
  match Scc.Engine.run eng with
  | _ -> Alcotest.fail "deadlock should be detected"
  | exception Scc.Engine.Deadlock _ -> ()

let test_engine_spawn_join () =
  let eng = Scc.Engine.create () in
  let child_done = ref false in
  let joined_at = ref 0 in
  ignore
    (Scc.Engine.spawn eng ~core:0 (fun api ->
         let child =
           api.Scc.Engine.spawn_child ~core:0 (fun capi ->
               capi.Scc.Engine.compute 50_000;
               child_done := true)
         in
         api.Scc.Engine.join child;
         joined_at := api.Scc.Engine.now_ps ();
         Alcotest.(check bool) "child ran before join returned" true
           !child_done));
  Scc.Engine.run eng;
  Alcotest.(check bool) "join waited for the child's compute" true
    (!joined_at >= Scc.Config.core_cycles_ps Scc.Config.default 50_000)

let test_engine_shared_core_serializes () =
  let elapsed nthreads =
    let eng = Scc.Engine.create () in
    for _ = 1 to nthreads do
      ignore
        (Scc.Engine.spawn eng ~core:0 (fun api ->
             api.Scc.Engine.compute 100_000))
    done;
    Scc.Engine.run eng;
    Scc.Engine.elapsed_ps eng
  in
  let one = elapsed 1 in
  let four = elapsed 4 in
  Alcotest.(check bool) "4 threads at least 4x one thread" true
    (four >= 4 * one);
  Alcotest.(check bool) "but switching overhead is bounded (< 5x)" true
    (four < 5 * one)

let test_engine_mc_contention_monotone () =
  (* same total shared traffic is never faster with fewer cores *)
  let elapsed ncores =
    let eng = Scc.Engine.create () in
    let mm = Scc.Engine.memmap eng in
    let sh = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:(1 lsl 18) in
    let total = 1 lsl 16 in
    let per = total / ncores in
    for core = 0 to ncores - 1 do
      ignore
        (Scc.Engine.spawn eng ~core (fun api ->
             api.Scc.Engine.load (sh + (api.Scc.Engine.self * per)) ~bytes:per))
    done;
    Scc.Engine.run eng;
    Scc.Engine.elapsed_ps eng
  in
  let e1 = elapsed 1 and e8 = elapsed 8 and e32 = elapsed 32 in
  Alcotest.(check bool) "8 cores faster than 1" true (e8 < e1);
  Alcotest.(check bool) "32 cores no slower than 8" true (e32 <= e8);
  (* physical floor: the controllers must serve every line *)
  let cfg = Scc.Config.default in
  let lines = (1 lsl 16) / cfg.Scc.Config.line_bytes in
  let service_floor =
    lines / cfg.Scc.Config.n_mcs
    * Scc.Config.dram_cycles_ps cfg cfg.Scc.Config.mc_service_cycles
  in
  Alcotest.(check bool) "bounded below by controller service" true
    (e32 >= service_floor)

let test_engine_mpb_faster_than_shared_dram () =
  let run region_of =
    let eng = Scc.Engine.create () in
    let mm = Scc.Engine.memmap eng in
    let addr = Scc.Memmap.alloc mm (region_of ()) ~bytes:4096 in
    ignore
      (Scc.Engine.spawn eng ~core:0 (fun api ->
           api.Scc.Engine.load addr ~bytes:4096));
    Scc.Engine.run eng;
    Scc.Engine.elapsed_ps eng
  in
  let mpb = run (fun () -> Scc.Memmap.Mpb 0) in
  let dram = run (fun () -> Scc.Memmap.Shared_dram) in
  Alcotest.(check bool)
    (Printf.sprintf "MPB (%d ps) beats uncached DRAM (%d ps)" mpb dram)
    true
    (mpb * 3 < dram)

let test_engine_cached_private_beats_shared () =
  let run region =
    let eng = Scc.Engine.create () in
    let mm = Scc.Engine.memmap eng in
    let addr = Scc.Memmap.alloc mm region ~bytes:4096 in
    ignore
      (Scc.Engine.spawn eng ~core:0 (fun api ->
           (* warm pass then measured pass *)
           api.Scc.Engine.load addr ~bytes:4096;
           let t0 = api.Scc.Engine.now_ps () in
           api.Scc.Engine.load addr ~bytes:4096;
           let t1 = api.Scc.Engine.now_ps () in
           ignore (t1 - t0)));
    Scc.Engine.run eng;
    Scc.Engine.elapsed_ps eng
  in
  let priv = run (Scc.Memmap.Private 0) in
  let shared = run Scc.Memmap.Shared_dram in
  Alcotest.(check bool) "cacheable private wins overall" true (priv < shared)

let test_posted_writes_cheaper () =
  let run cfg =
    let eng = Scc.Engine.create ~cfg () in
    let mm = Scc.Engine.memmap eng in
    let sh = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:8192 in
    ignore
      (Scc.Engine.spawn eng ~core:0 (fun api ->
           api.Scc.Engine.store sh ~bytes:8192));
    Scc.Engine.run eng;
    Scc.Engine.elapsed_ps eng
  in
  let blocking = run Scc.Config.default in
  let posted =
    run { Scc.Config.default with Scc.Config.posted_shared_writes = true }
  in
  Alcotest.(check bool)
    (Printf.sprintf "posted stores (%d ps) beat blocking (%d ps)" posted
       blocking)
    true
    (posted * 2 < blocking);
  (* reads are unaffected *)
  let read_with cfg =
    let eng = Scc.Engine.create ~cfg () in
    let mm = Scc.Engine.memmap eng in
    let sh = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:8192 in
    ignore
      (Scc.Engine.spawn eng ~core:0 (fun api ->
           api.Scc.Engine.load sh ~bytes:8192));
    Scc.Engine.run eng;
    Scc.Engine.elapsed_ps eng
  in
  Alcotest.(check int) "loads unchanged" (read_with Scc.Config.default)
    (read_with
       { Scc.Config.default with Scc.Config.posted_shared_writes = true })

let test_spawn_after_run_rejected () =
  let eng = Scc.Engine.create () in
  ignore (Scc.Engine.spawn eng ~core:0 (fun _ -> ()));
  Scc.Engine.run eng;
  match Scc.Engine.spawn eng ~core:0 (fun _ -> ()) with
  | _ -> Alcotest.fail "spawn after run accepted"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "cache basics" `Quick test_cache_basics;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache dirty writeback" `Quick
      test_cache_dirty_writeback;
    Alcotest.test_case "cache flush and rates" `Quick
      test_cache_flush_and_rates;
    Alcotest.test_case "cache bad geometry" `Quick test_cache_bad_geometry;
    Alcotest.test_case "cache matches reference LRU" `Quick
      test_cache_matches_reference;
    Alcotest.test_case "engine create allocation" `Quick
      test_engine_create_allocation;
    Alcotest.test_case "memmap regions" `Quick test_memmap_regions_roundtrip;
    Alcotest.test_case "memmap alignment" `Quick test_memmap_line_alignment;
    Alcotest.test_case "MPB capacity" `Quick test_mpb_capacity_enforced;
    Alcotest.test_case "MPB striping" `Quick test_mpb_striping;
    Alcotest.test_case "mesh hops" `Quick test_mesh_hops;
    Alcotest.test_case "mesh core mapping" `Quick test_mesh_core_mapping;
    Alcotest.test_case "mesh MC quadrants" `Quick test_mesh_mc_quadrants;
    Alcotest.test_case "power endpoints" `Quick test_power_endpoints;
    Alcotest.test_case "power energy" `Quick test_power_monotone_energy;
    Alcotest.test_case "engine determinism" `Quick test_engine_determinism;
    Alcotest.test_case "engine compute timing" `Quick
      test_engine_compute_timing;
    Alcotest.test_case "engine barrier" `Quick test_engine_barrier_sync;
    Alcotest.test_case "engine lock exclusion" `Quick
      test_engine_lock_mutual_exclusion;
    Alcotest.test_case "engine bad release" `Quick
      test_engine_release_without_hold;
    Alcotest.test_case "engine deadlock" `Quick test_engine_deadlock_detected;
    Alcotest.test_case "engine spawn/join" `Quick test_engine_spawn_join;
    Alcotest.test_case "engine shared core" `Quick
      test_engine_shared_core_serializes;
    Alcotest.test_case "engine MC contention" `Quick
      test_engine_mc_contention_monotone;
    Alcotest.test_case "engine MPB vs DRAM" `Quick
      test_engine_mpb_faster_than_shared_dram;
    Alcotest.test_case "engine private vs shared" `Quick
      test_engine_cached_private_beats_shared;
    Alcotest.test_case "posted shared writes" `Quick
      test_posted_writes_cheaper;
    Alcotest.test_case "spawn after run" `Quick test_spawn_after_run_rejected;
  ]
