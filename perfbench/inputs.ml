(* Seeded inputs.  Everything a seed decides — the Conform.Gen programs,
   the Synth.Emit programs, the sweep's stratified sample and its spec
   seeds — is drawn here from one splitmix64 stream per use, so the same
   seed gives the same inputs on every machine. *)

(* The paper kernels.  At 8 threads they are sized so that one leg
   records a few ten thousand engine events (small enough to trace and
   render many times a second in observe); at 32 threads they are sized
   for MPB traffic while keeping a leg near a tenth of a second. *)
let kernels ~nt =
  let at8 a b = if nt <= 8 then a else b in
  [ ("pi", Exp.Csrc.pi ~nt ~steps:(at8 1024 4096));
    ("primes", Exp.Csrc.primes ~nt ~limit:(at8 200 300));
    ("sum35", Exp.Csrc.sum35 ~nt ~bound:(at8 2000 20_000));
    ("dot", Exp.Csrc.dot ~nt ~n:(at8 256 512));
    ("stream", Exp.Csrc.stream ~nt ~n:256);
    ("lu", Exp.Csrc.lu ~nt ~n:(at8 8 16));
    ("mutex_counter", Exp.Csrc.mutex_counter ~nt ~iters:(at8 200 1_000));
    ("hot_loop", Exp.Csrc.hot_loop ~nt ~steps:(at8 512 1024)) ]

type gen = {
  g_name : string;
  g_program : Cfront.Ast.program;
  g_config : Conform.Oracle.config;  (* translator options, RCCE cores *)
}

let stream ~seed salt = Conform.Rng.create ((seed * 8) + salt)

(* Program [i] is drawn from stratum [i] of [strata] in turn, redrawing
   the seed until the generator lands in it, so every seed gets the same
   mix and only the programs themselves differ. *)
let gen_programs ~seed ~count ~strata =
  let rng = stream ~seed 1 in
  List.init count (fun i ->
      let accept = strata.(i mod Array.length strata) in
      let rec draw tries =
        let s = Conform.Rng.range rng 1 (1 lsl 30) in
        let spec, program = Conform.Gen.generate ~seed:s in
        if accept spec program || tries = 0 then (s, spec, program)
        else draw (tries - 1)
      in
      let s, spec, program = draw 100 in
      { g_name = Printf.sprintf "gen_seed%d.c" s; g_program = program;
        g_config = Conform.Oracle.config_of_spec spec })

(* Thread counts: what the simulated speedup of a generated program
   mostly depends on. *)
let by_threads =
  Array.init 3 (fun k (spec : Conform.Gen.spec) (_ : Cfront.Ast.program) ->
      spec.Conform.Gen.nt = 2 + k)

(* Source sizes: what its compile time mostly depends on.  The bounds
   are the quartiles of the generator's source lengths; the top stratum
   stops near the 95th percentile so one outlier cannot dominate a seed. *)
let by_size =
  Array.map
    (fun (lo, hi) (_ : Conform.Gen.spec) program ->
      let len = String.length (Conform.Gen.source_of_program program) in
      len >= lo && len < hi)
    [| (0, 1230); (1230, 1400); (1400, 1700); (1700, 2300) |]

let emit_programs ~seed ~count =
  let rng = stream ~seed 2 in
  let threads = [| 2; 4; 8 |] in
  List.init count (fun i ->
      let stratum =
        List.filter
          (fun sp -> sp.Synth.Spec.threads = threads.(i mod Array.length threads))
          (Synth.Spec.grid Synth.Spec.Quick)
      in
      let sp =
        { (Conform.Rng.pick rng stratum) with
          Synth.Spec.seed = Conform.Rng.range rng 1 (1 lsl 30) }
      in
      { g_name = Printf.sprintf "emit_seed%d.c" sp.Synth.Spec.seed;
        g_program = Synth.Emit.program_of_spec sp;
        g_config = Synth.Emit.oracle_config sp })

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Conform.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* A stratified sample of the quick grid: one config from every
   (threads, sharing, hot) stratum — the threads=2 hot=2048 loss region
   among them.  The read_pct values and the (cold, phases, dvfs)
   combinations are dealt out round-robin (the latter from a seeded
   permutation), so every value of every axis appears.  Spec seeds are
   drawn from the stream too. *)
let sweep_sample ~seed =
  let rng = stream ~seed 3 in
  let module S = Synth.Spec in
  let quick_grid = S.grid S.Quick in
  let axis f = List.sort_uniq compare (List.map f quick_grid) in
  let strata = axis (fun sp -> (sp.S.threads, sp.S.sharing, sp.S.n_shared)) in
  let reads = Array.of_list (axis (fun sp -> sp.S.read_pct)) in
  let combos =
    Array.of_list (shuffle rng (axis (fun sp -> (sp.S.n_cold, sp.S.phases, sp.S.dvfs_mhz))))
  in
  List.mapi
    (fun k (threads, sharing, n_shared) ->
      let read_pct = reads.(k mod Array.length reads) in
      let n_cold, phases, dvfs_mhz = combos.(k mod Array.length combos) in
      let sp =
        List.find
          (fun sp ->
            (sp.S.threads, sp.S.sharing, sp.S.n_shared, sp.S.read_pct,
             sp.S.n_cold, sp.S.phases, sp.S.dvfs_mhz)
            = (threads, sharing, n_shared, read_pct, n_cold, phases, dvfs_mhz))
          quick_grid
      in
      { sp with S.seed = Conform.Rng.range rng 1 (1 lsl 30) })
    strata
