open Cfront

(* Thread-modular abstract interpretation: the interval domain, the
   interference fixpoint (against the naive sequential strawman), the
   bounds verdicts on the checked-in programs, and the sharing-lattice
   feedback. *)

let parse src = Parser.program ~file:"t.c" src

let analyze ?(interference = true) ?(ncores = 4) src =
  Absint.analyze ~interference ~ncores (parse src)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* All obligations whose rendered access path is [path]. *)
let obligations_for summary path =
  List.filter
    (fun (o : Absint.Oblig.t) -> o.Absint.Oblig.o_path = path)
    summary.Absint.Oblig.s_obligations

let the_status summary path =
  match obligations_for summary path with
  | [ o ] -> o.Absint.Oblig.o_status
  | [] -> Alcotest.failf "no obligation for %s" path
  | _ -> Alcotest.failf "several obligations for %s" path

let is_proved = function Absint.Oblig.Proved -> true | _ -> false

(* --- the interval domain ---------------------------------------------------- *)

let test_itv_ops () =
  let open Absint.Itv in
  Alcotest.(check string) "join" "[0,9]" (to_string (join (const 0) (const 9)));
  Alcotest.(check string) "widen keeps stable lo" "[0,+inf]"
    (to_string (widen (range 0 3) (range 0 4)));
  Alcotest.(check string) "widen drops falling lo" "[-inf,3]"
    (to_string (widen (range 2 3) (range 1 3)));
  Alcotest.(check string) "mask bounds any nonneg" "[0,7]"
    (to_string (binop Ast.Band (range 0 1000000) (const 7)));
  Alcotest.(check string) "mod positive divisor" "[0,4]"
    (to_string (binop Ast.Mod (range 0 100) (const 5)));
  Alcotest.(check string) "filter < shaves the top" "[0,7]"
    (to_string (filter Ast.Lt (range 0 100) (const 8)));
  Alcotest.(check bool) "contained" true
    (contained_in (range 1 3) ~lo:0 ~hi:3);
  Alcotest.(check bool) "disjoint" true
    (disjoint_from (range 4 7) ~lo:0 ~hi:3)

(* --- interference iteration ------------------------------------------------- *)

(* One thread pushes the shared index out of range while another uses it
   as a subscript.  A sequential analysis that ignores interference sees
   the initial value and wrongly proves the access; the thread-modular
   fixpoint must account for the concurrent write. *)
let interfering_index =
  {|#include <pthread.h>
    int arr[8];
    int g;
    void *bump(void *a) {
      g = 9;
      pthread_exit(NULL);
    }
    void *reader(void *a) {
      arr[g] = 1;
      pthread_exit(NULL);
    }
    int main() {
      pthread_t t1;
      pthread_t t2;
      pthread_create(&t1, NULL, bump, NULL);
      pthread_create(&t2, NULL, reader, NULL);
      pthread_join(t1, NULL);
      pthread_join(t2, NULL);
      return 0;
    }|}

let test_naive_is_unsound_modular_is_not () =
  let naive = analyze ~interference:false interfering_index in
  let modular = analyze interfering_index in
  Alcotest.(check bool) "naive sequential analysis wrongly proves" true
    (is_proved (the_status naive "arr[g]"));
  Alcotest.(check bool) "thread-modular fixpoint does not" false
    (is_proved (the_status modular "arr[g]"))

(* A cross-thread accumulator forces widening: the store must reach a
   fixpoint (well under the round cap), the masked subscript must stay
   proved and the raw one must not. *)
let accumulator =
  {|#include <pthread.h>
    int ro[8];
    int idx;
    void *w(void *a) {
      int i;
      for (i = 0; i < 100; i++) {
        idx = idx + 1;
      }
      ro[idx & 7] = 1;
      ro[idx] = 2;
      pthread_exit(NULL);
    }
    int main() {
      pthread_t t1;
      pthread_t t2;
      pthread_create(&t1, NULL, w, NULL);
      pthread_create(&t2, NULL, w, NULL);
      pthread_join(t1, NULL);
      pthread_join(t2, NULL);
      return 0;
    }|}

let test_widening_converges_and_stays_precise () =
  let s = analyze accumulator in
  Alcotest.(check bool) "fixpoint reached below the round cap" true
    (s.Absint.Oblig.s_rounds < 64);
  Alcotest.(check bool) "masked subscript proved" true
    (is_proved (the_status s "ro[idx & 7]"));
  Alcotest.(check bool) "raw widened subscript not proved" false
    (is_proved (the_status s "ro[idx]"))

(* Per-slot writes through the create-loop counter: the spawn argument's
   interval must stay tight enough to prove every slot in range. *)
let slot_writes =
  {|#include <pthread.h>
    int out[4];
    void *work(void *arg) {
      int tid = (int)arg;
      out[tid] = tid;
      pthread_exit(NULL);
    }
    int main() {
      int t;
      pthread_t threads[4];
      for (t = 0; t < 4; t++) {
        pthread_create(&threads[t], NULL, work, (void *)t);
      }
      for (t = 0; t < 4; t++) {
        pthread_join(threads[t], NULL);
      }
      return 0;
    }|}

let test_spawn_interval_proves_slots () =
  let s = analyze slot_writes in
  Alcotest.(check bool) "out[tid] proved" true
    (is_proved (the_status s "out[tid]"));
  match s.Absint.Oblig.s_spawns with
  | [ sp ] ->
      Alcotest.(check string) "thread ids" "[0,3]"
        sp.Absint.Oblig.sp_interval
  | l -> Alcotest.failf "expected one spawn fact, got %d" (List.length l)

(* Branch-polarity refinement: the same subscript proves under its guard
   and not outside it. *)
let guarded =
  {|int arr[8];
    int main(int argc, char **argv) {
      int i = argc;
      if (i >= 0 && i < 8) {
        arr[i] = 1;
      }
      arr[i] = 2;
      return 0;
    }|}

let test_branch_refinement () =
  let s = analyze guarded in
  let statuses =
    List.map
      (fun (o : Absint.Oblig.t) -> is_proved o.Absint.Oblig.o_status)
      (obligations_for s "arr[i]")
  in
  Alcotest.(check (list bool)) "guarded proved, unguarded not"
    [ true; false ] statuses

(* --- bounds verdicts on the checked-in programs ----------------------------- *)

(* Replicates `hsmcc verify`: analyze the source, and for a Pthread
   program also its RCCE translation (on a later session generation). *)
let verify_runs ~file ~options src =
  let program = Parser.program ~file src in
  let session = Session.create ~file ~options program in
  let source = Session.absint_summary session in
  if Absint.detect_mode program = Absint.Oblig.Rcce then (session, [ source ])
  else begin
    let (_ : Ast.program * Translate.Driver.report) =
      Translate.Driver.translate_session session
    in
    (session, [ source; Session.absint_summary session ])
  end

let examples_options =
  { Translate.Pass.default_options with Translate.Pass.ncores = 4 }

let corpus_options =
  { Translate.Pass.default_options with
    Translate.Pass.ncores = 8; many_to_one = true }

let test_examples_fully_proved () =
  List.iter
    (fun name ->
      let file = "examples/c/" ^ name in
      let _, runs = verify_runs ~file ~options:examples_options
          (read_file ("../examples/c/" ^ name))
      in
      Alcotest.(check int) (name ^ ": two runs") 2 (List.length runs);
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s (%s): all proved" name
               (Absint.Oblig.mode_to_string s.Absint.Oblig.s_mode))
            true
            (Absint.Oblig.all_proved s))
        runs)
    [ "locked_counter.c"; "racy_branch.c"; "unlocked_counter.c" ]

let test_corpus_fully_proved () =
  let dir = "conformance" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus present" true (List.length files >= 10);
  List.iter
    (fun name ->
      let file = "test/conformance/" ^ name in
      let _, runs = verify_runs ~file ~options:corpus_options
          (read_file (Filename.concat dir name))
      in
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s (%s): all proved" name
               (Absint.Oblig.mode_to_string s.Absint.Oblig.s_mode))
            true
            (Absint.Oblig.all_proved s))
        runs)
    files

let test_unsafe_example_flagged () =
  let file = "test/verify/oob_off_by_one.c" in
  let session, runs =
    verify_runs ~file ~options:examples_options
      (read_file "verify/oob_off_by_one.c")
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "not all proved" false
        (Absint.Oblig.all_proved s))
    runs;
  (* the diagnostic names the offending access; the translated run's
     names the shmalloc region specifically *)
  let diags = List.concat_map Absint.diags_of runs in
  Alcotest.(check bool) "diagnostic names the access" true
    (List.exists
       (fun (d : Diag.t) ->
         let m = d.Diag.message in
         let contains s sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length s
             && (String.sub s i n = sub || go (i + 1))
           in
           go 0
         in
         contains m "out[tid + 1]" && contains m "shmalloc region")
       diags);
  ignore (Session.generation session : int)

(* --- golden JSON reports ---------------------------------------------------- *)

let golden_cases =
  [ ("locked_counter", "examples/c/locked_counter.c",
     "../examples/c/locked_counter.c", examples_options);
    ("racy_branch", "examples/c/racy_branch.c",
     "../examples/c/racy_branch.c", examples_options);
    ("unlocked_counter", "examples/c/unlocked_counter.c",
     "../examples/c/unlocked_counter.c", examples_options);
    ("gen_seed1", "test/conformance/gen_seed1.c",
     "conformance/gen_seed1.c", corpus_options);
    ("gen_seed12", "test/conformance/gen_seed12.c",
     "conformance/gen_seed12.c", corpus_options);
    ("oob_off_by_one", "test/verify/oob_off_by_one.c",
     "verify/oob_off_by_one.c", examples_options) ]

(* Byte-compare against `hsmcc verify --json` run from the repository
   root (the [~file] passed to the renderer is the CLI-visible path, so
   the documents match exactly). *)
let test_golden_verify_json () =
  List.iter
    (fun (name, file, disk, options) ->
      let _, runs = verify_runs ~file ~options (read_file disk) in
      let got = Absint.render_json ~file runs in
      let want = read_file ("golden/" ^ name ^ ".verify.json") in
      Alcotest.(check string) (name ^ ".verify.json") want got)
    golden_cases

(* --- sharing-lattice feedback ----------------------------------------------- *)

(* [scratch] is touched by exactly one thread instance and by nobody
   else, but Stage 1-3 can only call a global Shared.  The verifier's
   thread-extent fact demotes it to Private; [acc] (also read by main)
   must stay Shared. *)
let sharpen_src =
  {|#include <pthread.h>
    int scratch;
    int acc;
    pthread_mutex_t m;
    void *work(void *arg) {
      scratch = scratch + 3;
      pthread_mutex_lock(&m);
      acc = acc + scratch;
      pthread_mutex_unlock(&m);
      pthread_exit(NULL);
    }
    int main() {
      pthread_t t1;
      pthread_create(&t1, NULL, work, NULL);
      pthread_join(t1, NULL);
      return acc;
    }|}

let sharing_status session name =
  let scope = Session.scope session in
  let info =
    Analysis.Scope_analysis.get scope (Ir.Var_id.global name)
  in
  Analysis.Sharing.status info.Analysis.Varinfo.sharing

let test_sharpen_demotes_thread_local_global () =
  let options =
    { Translate.Pass.default_options with
      Translate.Pass.ncores = 4; sharpen = true }
  in
  let session = Session.create ~options (parse sharpen_src) in
  let (_ : Analysis.Pipeline.t) = Session.pipeline session in
  Alcotest.(check (list string)) "demoted names" [ "scratch" ]
    (Session.sharpened session);
  Alcotest.(check string) "scratch is private" "false"
    (Analysis.Sharing.status_to_string (sharing_status session "scratch"));
  Alcotest.(check string) "acc stays shared" "true"
    (Analysis.Sharing.status_to_string (sharing_status session "acc"))

let test_without_sharpen_nothing_moves () =
  let options =
    { Translate.Pass.default_options with Translate.Pass.ncores = 4 }
  in
  let session = Session.create ~options (parse sharpen_src) in
  let (_ : Analysis.Pipeline.t) = Session.pipeline session in
  Alcotest.(check string) "scratch stays shared" "true"
    (Analysis.Sharing.status_to_string (sharing_status session "scratch"));
  Alcotest.(check int) "sharpen provider never ran" 0
    (Session.invocations session "sharpen")

(* Sharpening changes the translation (the demoted global stays a plain
   per-core variable instead of moving to shared memory) but must not
   change the observable behaviour. *)
let test_sharpen_translation_agrees () =
  let translate sharpen =
    let options =
      { Translate.Pass.default_options with
        Translate.Pass.ncores = 4; sharpen }
    in
    let session = Session.create ~options (parse sharpen_src) in
    let translated, _ = Translate.Driver.translate_session session in
    Pretty.program translated
  in
  let plain = translate false and sharp = translate true in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "without sharpening scratch is shmalloc-backed"
    true (contains plain "int *scratch");
  Alcotest.(check bool) "with sharpening scratch stays a plain global"
    true (contains sharp "int scratch;");
  Alcotest.(check bool) "acc is shmalloc-backed either way" true
    (contains sharp "int *acc");
  (* and the dual-execution oracle still sees identical behaviour *)
  let cfg =
    { Conform.Oracle.options =
        { Translate.Pass.default_options with
          Translate.Pass.ncores = 4; sharpen = true };
      passes = None }
  in
  match Conform.Oracle.check cfg (parse sharpen_src) with
  | Conform.Oracle.Agree -> ()
  | Conform.Oracle.Diverge f ->
      Alcotest.failf "sharpened translation diverges: %s"
        (Conform.Oracle.failure_to_string f)

let suite =
  [
    Alcotest.test_case "interval domain operations" `Quick test_itv_ops;
    Alcotest.test_case "interference defeats the naive analysis" `Quick
      test_naive_is_unsound_modular_is_not;
    Alcotest.test_case "widening converges, masking stays precise" `Quick
      test_widening_converges_and_stays_precise;
    Alcotest.test_case "spawn interval proves per-slot writes" `Quick
      test_spawn_interval_proves_slots;
    Alcotest.test_case "branch-polarity refinement" `Quick
      test_branch_refinement;
    Alcotest.test_case "examples fully proved (both runs)" `Quick
      test_examples_fully_proved;
    Alcotest.test_case "regression corpus fully proved" `Quick
      test_corpus_fully_proved;
    Alcotest.test_case "unsafe example flagged with its access path" `Quick
      test_unsafe_example_flagged;
    Alcotest.test_case "golden verify --json reports" `Quick
      test_golden_verify_json;
    Alcotest.test_case "sharpening demotes a thread-local global" `Quick
      test_sharpen_demotes_thread_local_global;
    Alcotest.test_case "no sharpening without the option" `Quick
      test_without_sharpen_nothing_moves;
    Alcotest.test_case "sharpened translation agrees with the baseline"
      `Quick test_sharpen_translation_agrees;
  ]
