type token =
  | INT_LIT of int64
  | STR_LIT of string
  | CHAR_LIT of char
  | IDENT of string
  | KW of string
  | PUNCT of string
  | EOF

type t = { tok : token; line : int }

exception Lex_error of string * int

let is_keyword = function
  | "void" | "char" | "short" | "int" | "long" | "unsigned" | "signed" | "const" | "struct"
  | "union" | "if" | "else" | "while" | "do" | "for" | "return" | "break" | "continue"
  | "sizeof" | "intcap_t" ->
      true
  | _ -> false

(* [src.[j]], or NUL past the end (NUL continues no operator) *)
let char_at src j = if j < String.length src then String.unsafe_get src j else '\000'

(* The operator or punctuator starting at [src.[i]], read off its next
   one to three characters: greedy longest match, so "<<=" beats "<<"
   beats "<". "" when [src.[i]] starts none. Every result is a literal,
   so lexing punctuation allocates no string. *)
let punct src i =
  let c1 = char_at src (i + 1) in
  match src.[i] with
  | '(' -> "("
  | ')' -> ")"
  | '{' -> "{"
  | '}' -> "}"
  | '[' -> "["
  | ']' -> "]"
  | ';' -> ";"
  | ',' -> ","
  | '~' -> "~"
  | '?' -> "?"
  | ':' -> ":"
  | '.' -> if c1 = '.' && char_at src (i + 2) = '.' then "..." else "."
  | '<' -> (
      match c1 with
      | '<' -> if char_at src (i + 2) = '=' then "<<=" else "<<"
      | '=' -> "<="
      | _ -> "<")
  | '>' -> (
      match c1 with
      | '>' -> if char_at src (i + 2) = '=' then ">>=" else ">>"
      | '=' -> ">="
      | _ -> ">")
  | '&' -> ( match c1 with '&' -> "&&" | '=' -> "&=" | _ -> "&")
  | '|' -> ( match c1 with '|' -> "||" | '=' -> "|=" | _ -> "|")
  | '+' -> ( match c1 with '+' -> "++" | '=' -> "+=" | _ -> "+")
  | '-' -> ( match c1 with '-' -> "--" | '=' -> "-=" | '>' -> "->" | _ -> "-")
  | '=' -> if c1 = '=' then "==" else "="
  | '!' -> if c1 = '=' then "!=" else "!"
  | '*' -> if c1 = '=' then "*=" else "*"
  | '/' -> if c1 = '=' then "/=" else "/"
  | '%' -> if c1 = '=' then "%=" else "%"
  | '^' -> if c1 = '=' then "^=" else "^"
  | _ -> ""

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let unescape_char line = function
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | c -> raise (Lex_error (Printf.sprintf "unknown escape \\%c" c, line))

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let push tok = toks := { tok; line = !line } :: !toks in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && peek 1 = Some '/' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && peek 1 = Some '*' then begin
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '\n' then incr line;
        if src.[!i] = '*' && peek 1 = Some '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then raise (Lex_error ("unterminated comment", !line))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      let word = String.sub src start (!i - start) in
      if is_keyword word then push (KW word) else push (IDENT word)
    end
    else if is_digit c then begin
      let start = !i in
      if c = '0' && (peek 1 = Some 'x' || peek 1 = Some 'X') then begin
        i := !i + 2;
        while !i < n && is_hex_digit src.[!i] do
          incr i
        done;
        let text = String.sub src start (!i - start) in
        match Int64.of_string_opt text with
        | Some v -> push (INT_LIT v)
        | None -> raise (Lex_error ("bad hex literal " ^ text, !line))
      end
      else begin
        while !i < n && is_digit src.[!i] do
          incr i
        done;
        let text = String.sub src start (!i - start) in
        (* decimal literals above Int64.max_int are C unsigned
           constants: parse them with wraparound, like a compiler
           truncating to the 64-bit representation *)
        match Int64.of_string_opt text with
        | Some v -> push (INT_LIT v)
        | None -> (
            match Int64.of_string_opt ("0u" ^ text) with
            | Some v -> push (INT_LIT v)
            | None -> raise (Lex_error ("bad integer literal " ^ text, !line)))
      end;
      (* swallow C suffixes: 1UL, 2u, 3L *)
      while !i < n && (src.[!i] = 'u' || src.[!i] = 'U' || src.[!i] = 'l' || src.[!i] = 'L') do
        incr i
      done
    end
    else if c = '"' then begin
      incr i;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while (not !closed) && !i < n do
        match src.[!i] with
        | '"' ->
            closed := true;
            incr i
        | '\\' ->
            (match peek 1 with
            | Some e -> Buffer.add_char buf (unescape_char !line e)
            | None -> raise (Lex_error ("unterminated string", !line)));
            i := !i + 2
        | '\n' -> raise (Lex_error ("newline in string literal", !line))
        | ch ->
            Buffer.add_char buf ch;
            incr i
      done;
      if not !closed then raise (Lex_error ("unterminated string", !line));
      push (STR_LIT (Buffer.contents buf))
    end
    else if c = '\'' then begin
      incr i;
      let ch =
        match peek 0 with
        | Some '\\' -> (
            incr i;
            match peek 0 with
            | Some e ->
                incr i;
                unescape_char !line e
            | None -> raise (Lex_error ("unterminated char literal", !line)))
        | Some ch ->
            incr i;
            ch
        | None -> raise (Lex_error ("unterminated char literal", !line))
      in
      if peek 0 <> Some '\'' then raise (Lex_error ("unterminated char literal", !line));
      incr i;
      push (CHAR_LIT ch)
    end
    else begin
      match punct src !i with
      | "" -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, !line))
      | p ->
          i := !i + String.length p;
          push (PUNCT p)
    end
  done;
  push EOF;
  List.rev !toks

let pp_token ppf = function
  | INT_LIT v -> Format.fprintf ppf "%Ld" v
  | STR_LIT s -> Format.fprintf ppf "%S" s
  | CHAR_LIT c -> Format.fprintf ppf "%C" c
  | IDENT s -> Format.fprintf ppf "identifier %s" s
  | KW s -> Format.fprintf ppf "keyword %s" s
  | PUNCT s -> Format.fprintf ppf "'%s'" s
  | EOF -> Format.pp_print_string ppf "<eof>"
