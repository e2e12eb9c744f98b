(* Command-line argument checks: an out-of-range core or unit count is
   rejected with one line on stderr and exit 1, never an uncaught
   exception (exit 125) or a silent fallback to another mode. *)

(* the test process runs in _build/default/test *)
let exe name =
  let path = Printf.sprintf "../bin/%s.exe" name in
  if not (Sys.file_exists path) then Alcotest.failf "%s not built" path;
  path

(* Exit status and stderr line count of one invocation. *)
let invoke name args =
  let err = Filename.temp_file "hsmc_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2> %s" (exe name) args
         (Filename.quote err))
  in
  let lines =
    In_channel.with_open_text err In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  Sys.remove err;
  (code, List.length lines)

let rejected name args () =
  Alcotest.(check (pair int int)) (name ^ " " ^ args) (1, 1) (invoke name args)

let accepted name args () =
  Alcotest.(check int) (name ^ " " ^ args) 0 (fst (invoke name args))

let example = "../examples/c/locked_counter.c"

let suite =
  [
    Alcotest.test_case "run --cores above the chip exits 1" `Quick
      (rejected "hsmcc" ("run " ^ example ^ " --cores 49"));
    Alcotest.test_case "run --cores=0 exits 1" `Quick
      (rejected "hsmcc" ("run " ^ example ^ " --cores=0"));
    Alcotest.test_case "run --cores 1 is the Pthread baseline" `Quick
      (accepted "hsmcc" ("run " ^ example ^ " --cores 1"));
    Alcotest.test_case "simrun RCCE --units above the chip exits 1" `Quick
      (rejected "simrun" "--name pi --mode rcce-offchip --units 49");
    Alcotest.test_case "simrun --units 0 exits 1 in every mode" `Quick
      (fun () ->
        List.iter
          (fun mode ->
            rejected "simrun"
              (Printf.sprintf "--name pi --mode %s --units 0" mode) ())
          [ "pthread"; "rcce-offchip"; "rcce-mpb" ]);
    Alcotest.test_case "simrun Pthread --units may exceed the chip" `Quick
      (accepted "simrun" "--name pi --mode pthread --units 64");
  ]
