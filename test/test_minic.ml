(* Front-end tests: lexer, parser, type checker, layout. *)

open Minic
module T = Typed

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile = Typecheck.compile

let type_errors src =
  match Typecheck.compile src with
  | exception Typecheck.Type_error _ -> true
  | _ -> false

(* -- lexer -------------------------------------------------------------- *)

let test_lexer_basics () =
  let toks = Lexer.tokenize "int x = 0x2a; // comment\nchar c = 'a';" in
  let kinds = List.map (fun t -> t.Lexer.tok) toks in
  check_bool "hex literal" true (List.mem (Lexer.INT_LIT 42L) kinds);
  check_bool "char literal" true (List.mem (Lexer.CHAR_LIT 'a') kinds);
  check_bool "keyword" true (List.mem (Lexer.KW "int") kinds)

let test_lexer_strings () =
  let toks = Lexer.tokenize {|"a\nb"|} in
  match (List.hd toks).Lexer.tok with
  | Lexer.STR_LIT s -> Alcotest.(check string) "escape" "a\nb" s
  | _ -> Alcotest.fail "expected string literal"

let test_lexer_comments () =
  let toks = Lexer.tokenize "/* multi\nline */ 7" in
  check_int "only literal and eof" 2 (List.length toks)

let test_lexer_error () =
  match Lexer.tokenize "int @" with
  | exception Lexer.Lex_error (_, 1) -> ()
  | _ -> Alcotest.fail "expected lex error"

(* The punctuation lexer as it first was, kept as the reference the
   table-free one must reproduce: scan a 46-entry table, longest
   entries first, for the first that the input continues with. Around
   it, enough of the rest of the language for fuzz-generated sources:
   whitespace, both comment forms, identifiers and keywords, decimal
   literals and character literals. *)
let ref_puncts =
  [
    "<<="; ">>="; "..."; "=="; "!="; "<="; ">="; "&&"; "||"; "<<"; ">>"; "++"; "--"; "+="; "-=";
    "*="; "/="; "%="; "&="; "|="; "^="; "->"; "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "+"; "-";
    "*"; "/"; "%"; "&"; "|"; "^"; "~"; "!"; "<"; ">"; "="; "?"; ":"; ".";
  ]

let ref_keywords =
  [
    "void"; "char"; "short"; "int"; "long"; "unsigned"; "signed"; "const"; "struct"; "union";
    "if"; "else"; "while"; "do"; "for"; "return"; "break"; "continue"; "sizeof"; "intcap_t";
  ]

let ref_tokenize src : ((Lexer.token * int) list, string * int) result =
  let n = String.length src and line = ref 1 and toks = ref [] in
  let starts i p = i + String.length p <= n && String.sub src i (String.length p) = p in
  let span i ok =
    let j = ref i in
    while !j < n && ok src.[!j] do
      incr j
    done;
    !j
  in
  let rec go i =
    if i >= n then Ok (List.rev ((Lexer.EOF, !line) :: !toks))
    else
      let push tok j =
        toks := (tok, !line) :: !toks;
        go j
      in
      match src.[i] with
      | '\n' ->
          incr line;
          go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '/' when starts i "//" -> go (span i (fun c -> c <> '\n'))
      | '/' when starts i "/*" ->
          let rec close j =
            if j >= n then Error ("unterminated comment", !line)
            else if starts j "*/" then go (j + 2)
            else begin
              if src.[j] = '\n' then incr line;
              close (j + 1)
            end
          in
          close (i + 2)
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
          let j =
            span i (function 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true | _ -> false)
          in
          let w = String.sub src i (j - i) in
          push (if List.mem w ref_keywords then Lexer.KW w else Lexer.IDENT w) j
      | '0' .. '9' ->
          let j = span i (function '0' .. '9' -> true | _ -> false) in
          push (Lexer.INT_LIT (Int64.of_string (String.sub src i (j - i)))) j
      | '\'' when starts i "'\\n'" -> push (Lexer.CHAR_LIT '\n') (i + 4)
      | '\'' when i + 2 < n && src.[i + 2] = '\'' -> push (Lexer.CHAR_LIT src.[i + 1]) (i + 3)
      | c -> (
          match List.find_opt (starts i) ref_puncts with
          | Some p -> push (Lexer.PUNCT p) (i + String.length p)
          | None -> Error (Printf.sprintf "unexpected character %C" c, !line))
  in
  go 0

let lex src =
  match Lexer.tokenize src with
  | toks -> Ok (List.map (fun t -> (t.Lexer.tok, t.Lexer.line)) toks)
  | exception Lexer.Lex_error (msg, line) -> Error (msg, line)

let same_as_reference src = lex src = ref_tokenize src

let chars_of s = List.of_seq (String.to_seq s)

let prop_punct_stream =
  let alphabet = chars_of "()[]{};,+-*/%&|^~!<>=?:. \n" in
  QCheck.Test.make ~name:"punctuation lexes as the 46-entry longest-match table" ~count:2000
    QCheck.(string_gen_of_size Gen.(int_range 0 40) (Gen.oneofl alphabet))
    same_as_reference

let test_fuzz_corpus_lexes_as_reference () =
  for seed = 0 to 199 do
    let src = Cheri_fuzz.Gen.source ~seed in
    if not (same_as_reference src) then Alcotest.failf "seed %d lexes differently" seed
  done;
  (* characters that start no token keep their message and line *)
  List.iter
    (fun bad ->
      let src = "int x;\n  x = 1 " ^ bad ^ " 2;" in
      check_bool (src ^ " error") true (lex src = ref_tokenize src);
      match lex src with
      | Error (msg, 2) ->
          Alcotest.(check string) "message" (Printf.sprintf "unexpected character %C" bad.[0]) msg
      | _ -> Alcotest.failf "%S: expected a lex error on line 2" src)
    [ "@"; "$"; "`" ]

(* Lexing allocates its token list and little else: about 12.6 minor
   words per token over the fuzz corpus, where scanning the punctuation
   table with a String.sub per candidate made it 54.7. *)
let test_lexer_allocation () =
  let corpus = List.init 50 (fun seed -> Cheri_fuzz.Gen.source ~seed) in
  let tokens = List.fold_left (fun n s -> n + List.length (Lexer.tokenize s)) 0 corpus in
  let w0 = Gc.minor_words () in
  List.iter (fun s -> ignore (Sys.opaque_identity (Lexer.tokenize s))) corpus;
  let per_token = (Gc.minor_words () -. w0) /. float_of_int tokens in
  if per_token > 20. then Alcotest.failf "%.1f minor words per token (budget 20)" per_token

(* Hostile sources: a generated program with one to four bytes
   overwritten by random bytes, punctuation or quotes. The front end
   either accepts it or rejects it with one of its three structured
   errors; no other exception escapes. *)
let prop_front_end_total =
  let mutant =
    QCheck.Gen.(
      let* seed = int_bound 9999 in
      let src = Cheri_fuzz.Gen.source ~seed in
      let byte = oneof [ char; oneofl (chars_of "()[]{};,+-*/%&|^~!<>=?:.'\"\\") ] in
      let* edits = list_size (int_range 1 4) (pair (int_bound (String.length src - 1)) byte) in
      let b = Bytes.of_string src in
      List.iter (fun (i, c) -> Bytes.set b i c) edits;
      return (Bytes.to_string b))
  in
  QCheck.Test.make ~name:"front end: mutated sources only raise Lex/Parse/Type_error" ~count:500
    (QCheck.make ~print:String.escaped mutant) (fun src ->
      match Typecheck.compile src with
      | _ -> true
      | exception (Lexer.Lex_error _ | Parser.Parse_error _ | Typecheck.Type_error _) -> true)

(* -- parser ------------------------------------------------------------- *)

let test_parse_precedence () =
  match Parser.parse_expr "1 + 2 * 3" with
  | Ast.Ebinop (Ast.Add, Ast.Enum 1L, Ast.Ebinop (Ast.Mul, Ast.Enum 2L, Ast.Enum 3L)) -> ()
  | _ -> Alcotest.fail "wrong precedence"

let test_parse_cast_vs_parens () =
  (match Parser.parse_expr "(int)x" with
  | Ast.Ecast (t, Ast.Eident "x") when t = Ast.tint -> ()
  | _ -> Alcotest.fail "cast not recognized");
  match Parser.parse_expr "(x)" with
  | Ast.Eident "x" -> ()
  | _ -> Alcotest.fail "parenthesized expression broken"

let test_parse_declarators () =
  let p = compile "struct s { int a; }; int *g[4]; int main(void) { return 0; }" in
  match (List.hd p.T.globals).T.gty with
  | Ast.Tarray (Ast.Tptr _, 4) -> ()
  | t -> Alcotest.failf "expected int*[4], got %a" Ast.pp_ty t

let test_parse_for_while () =
  let p =
    compile
      {|
int main(void) {
  long s = 0;
  for (int i = 0; i < 10; i++) s += i;
  while (s > 40) s--;
  do { s++; } while (s < 41);
  return s;
}
|}
  in
  check_int "one function" 1 (List.length p.T.funcs)

let test_parse_error_position () =
  match Parser.parse "int main(void) {\n  return ;;\n}" with
  | exception Parser.Parse_error (_, _) -> ()
  | _ -> Alcotest.fail "expected parse error"

(* -- typechecking -------------------------------------------------------- *)

let test_undefined_variable () =
  check_bool "undefined var" true (type_errors "int main(void) { return nope; }")

let test_const_assignment_rejected () =
  check_bool "write through const" true
    (type_errors "int main(void) { const int x = 1; x = 2; return 0; }");
  check_bool "write through const pointer" true
    (type_errors "int main(void) { int y = 1; const int *p = &y; *p = 2; return 0; }")

let test_deconst_cast_accepted () =
  check_bool "deconst compiles" false
    (type_errors
       "int main(void) { int y = 1; const int *p = &y; int *q = (int*)p; *q = 2; return 0; }")

let test_incompatible_pointers_rejected () =
  check_bool "long* to int* implicit" true
    (type_errors "int main(void) { long x; int *p = &x; return 0; }");
  check_bool "void* laundering allowed" false
    (type_errors "int main(void) { long x; void *v = &x; int *p = v; return 0; }")

let test_pointer_arith_types () =
  let p =
    compile "int main(void) { char *c = (char*)malloc(4); long d = (c + 3) - c; return d; }"
  in
  ignore p

let test_no_main () =
  check_bool "missing main" true (type_errors "int f(void) { return 0; }")

let test_shadowing_renamed () =
  let p =
    compile
      {|
int main(void) {
  int x = 1;
  { int x = 2; x = x + 1; }
  return x;
}
|}
  in
  let names = ref [] in
  T.iter_program
    (fun _ -> ())
    (fun s -> match s with T.Decl { name; _ } -> names := name :: !names | _ -> ())
    p;
  check_int "two distinct locals" 2 (List.length (List.sort_uniq compare !names))

(* -- layout -------------------------------------------------------------- *)

let layout_prog =
  compile
    {|
struct mixed { char c; long l; short s; };
struct node { struct node *next; int v; };
union u { char bytes[12]; long l; };
int main(void) { return 0; }
|}

let test_struct_layout_mips () =
  let t = Layout.mips_target in
  check_int "mixed size" 24 (Layout.size_of layout_prog t (Ast.Tstruct "mixed"));
  check_int "c offset" 0 (Layout.field_offset layout_prog t (Ast.Tstruct "mixed") "c");
  check_int "l offset" 8 (Layout.field_offset layout_prog t (Ast.Tstruct "mixed") "l");
  check_int "s offset" 16 (Layout.field_offset layout_prog t (Ast.Tstruct "mixed") "s");
  check_int "node size (8-byte ptr)" 16 (Layout.size_of layout_prog t (Ast.Tstruct "node"))

let test_struct_layout_cheri () =
  let t = Layout.cheri_target in
  (* pointers blow up to 32 bytes with 32-byte alignment *)
  check_int "node size (32-byte cap)" 64 (Layout.size_of layout_prog t (Ast.Tstruct "node"));
  check_int "v offset" 32 (Layout.field_offset layout_prog t (Ast.Tstruct "node") "v");
  check_int "pointer size" 32 (Layout.size_of layout_prog t (Ast.ptr Ast.tint))

let test_union_layout () =
  let t = Layout.mips_target in
  check_int "union size" 16 (Layout.size_of layout_prog t (Ast.Tunion "u"));
  check_int "all members at 0" 0 (Layout.field_offset layout_prog t (Ast.Tunion "u") "l")

let test_array_layout () =
  let t = Layout.mips_target in
  check_int "int[10]" 40 (Layout.size_of layout_prog t (Ast.Tarray (Ast.tint, 10)));
  check_int "void scales by 1" 1 (Layout.elem_size layout_prog t Ast.Tvoid)

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
    Alcotest.test_case "lexer strings" `Quick test_lexer_strings;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer error" `Quick test_lexer_error;
    QCheck_alcotest.to_alcotest prop_punct_stream;
    Alcotest.test_case "fuzz corpus lexes as the reference" `Quick
      test_fuzz_corpus_lexes_as_reference;
    Alcotest.test_case "lexer allocation per token" `Quick test_lexer_allocation;
    QCheck_alcotest.to_alcotest prop_front_end_total;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "cast vs parens" `Quick test_parse_cast_vs_parens;
    Alcotest.test_case "declarators" `Quick test_parse_declarators;
    Alcotest.test_case "for/while/do" `Quick test_parse_for_while;
    Alcotest.test_case "parse error" `Quick test_parse_error_position;
    Alcotest.test_case "undefined variable" `Quick test_undefined_variable;
    Alcotest.test_case "const assignment rejected" `Quick test_const_assignment_rejected;
    Alcotest.test_case "deconst cast accepted" `Quick test_deconst_cast_accepted;
    Alcotest.test_case "incompatible pointers" `Quick test_incompatible_pointers_rejected;
    Alcotest.test_case "pointer arithmetic types" `Quick test_pointer_arith_types;
    Alcotest.test_case "missing main" `Quick test_no_main;
    Alcotest.test_case "shadowing renamed" `Quick test_shadowing_renamed;
    Alcotest.test_case "struct layout (MIPS)" `Quick test_struct_layout_mips;
    Alcotest.test_case "struct layout (CHERI)" `Quick test_struct_layout_cheri;
    Alcotest.test_case "union layout" `Quick test_union_layout;
    Alcotest.test_case "array layout" `Quick test_array_layout;
  ]
