(* Static idiom analysis over mini-C source files — the Table 1
   analyzer as a command-line tool:

     cheri-analyze file.c [more.c ...]
     cheri-analyze --no-opt file.c      # count idioms even in dead code *)

let usage () =
  prerr_endline "usage: cheri-analyze [--no-opt] file.c [more.c ...]";
  exit 2

let read_file path =
  match Cheri_util.File.read path with
  | Ok s -> s
  | Error msg ->
      prerr_endline msg;
      exit 1

let () =
  let optimize = ref true in
  let files = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with "--no-opt" -> optimize := false | f -> files := f :: !files)
    Sys.argv;
  let files = List.rev !files in
  if files = [] then usage ();
  let total = ref Cheri_analysis.Idiom.Counts.zero in
  List.iter
    (fun path ->
      match
        try Ok (Cheri_analysis.Finder.analyze_source ~optimize:!optimize (read_file path)) with
        | Minic.Typecheck.Type_error m -> Error ("type error: " ^ m)
        | Minic.Parser.Parse_error (m, line) ->
            Error (Printf.sprintf "parse error at line %d: %s" line m)
        | Minic.Lexer.Lex_error (m, line) ->
            Error (Printf.sprintf "lex error at line %d: %s" line m)
      with
      | Ok counts ->
          total := Cheri_analysis.Idiom.Counts.add !total counts;
          Format.printf "%-32s %a@." path Cheri_analysis.Idiom.Counts.pp counts
      | Error msg ->
          Format.eprintf "%s: %s@." path msg;
          exit 1)
    files;
  if List.length files > 1 then Format.printf "%-32s %a@." "TOTAL" Cheri_analysis.Idiom.Counts.pp !total
