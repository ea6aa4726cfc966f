open Ast

exception Parse_error of string * int

type state = { mutable toks : Lexer.t list }

let fail st msg =
  let line = match st.toks with { line; _ } :: _ -> line | [] -> 0 in
  raise (Parse_error (msg, line))

let peek st = match st.toks with { tok; _ } :: _ -> tok | [] -> Lexer.EOF
let peek2 st = match st.toks with _ :: { tok; _ } :: _ -> tok | _ -> Lexer.EOF

let advance st =
  match st.toks with
  | _ :: rest -> st.toks <- rest
  | [] -> ()

let next st =
  let t = peek st in
  advance st;
  t

let expect_punct st p =
  match next st with
  | Lexer.PUNCT q when q = p -> ()
  | t -> fail st (Format.asprintf "expected '%s', found %a" p Lexer.pp_token t)

let expect_ident st =
  match next st with
  | Lexer.IDENT s -> s
  | t -> fail st (Format.asprintf "expected identifier, found %a" Lexer.pp_token t)

let accept_punct st p =
  match peek st with
  | Lexer.PUNCT q when q = p ->
      advance st;
      true
  | _ -> false

let accept_kw st k =
  match peek st with
  | Lexer.KW q when q = k ->
      advance st;
      true
  | _ -> false

(* -- types --------------------------------------------------------------- *)

let is_type_start = function
  | Lexer.KW
      ("void" | "char" | "short" | "int" | "long" | "unsigned" | "signed" | "const" | "struct"
      | "union" | "intcap_t") ->
      true
  | _ -> false

(* base type with leading const: returns (ty, const) *)
let parse_base_type st =
  let const = accept_kw st "const" in
  let base =
    match next st with
    | Lexer.KW "void" -> Tvoid
    | Lexer.KW "char" -> tchar
    | Lexer.KW "short" ->
        ignore (accept_kw st "int");
        tshort
    | Lexer.KW "int" -> tint
    | Lexer.KW "long" ->
        ignore (accept_kw st "long");
        ignore (accept_kw st "int");
        tlong
    | Lexer.KW "intcap_t" -> Tintcap
    | Lexer.KW "signed" -> (
        match peek st with
        | Lexer.KW "char" ->
            advance st;
            tchar
        | Lexer.KW "short" ->
            advance st;
            tshort
        | Lexer.KW "int" ->
            advance st;
            tint
        | Lexer.KW "long" ->
            advance st;
            ignore (accept_kw st "long");
            tlong
        | _ -> tint)
    | Lexer.KW "unsigned" -> (
        match peek st with
        | Lexer.KW "char" ->
            advance st;
            tuchar
        | Lexer.KW "short" ->
            advance st;
            tushort
        | Lexer.KW "int" ->
            advance st;
            tuint
        | Lexer.KW "long" ->
            advance st;
            ignore (accept_kw st "long");
            tulong
        | _ -> tuint)
    | Lexer.KW "struct" -> Tstruct (expect_ident st)
    | Lexer.KW "union" -> Tunion (expect_ident st)
    | t -> fail st (Format.asprintf "expected a type, found %a" Lexer.pp_token t)
  in
  (* allow trailing const: "char const" *)
  let const = accept_kw st "const" || const in
  (base, const)

(* pointer suffix: each '*' may be followed by const qualifying the pointer
   itself, which we ignore (pointer-to-const is what matters for the
   DECONST idiom) *)
let rec parse_pointers st (ty, const) =
  if accept_punct st "*" then begin
    ignore (accept_kw st "const");
    parse_pointers st (Tptr { pointee = ty; pointee_const = const }, false)
  end
  else (ty, const)

(* a full abstract type, e.g. in casts and sizeof *)
let parse_type st =
  let ty, const = parse_pointers st (parse_base_type st) in
  ignore const;
  ty

(* -- expressions ---------------------------------------------------------- *)

(* the operator one precedence level maps [p] to, if any *)
let rec binop_of p = function
  | [] -> None
  | (q, op) :: rest -> if String.equal p q then Some op else binop_of p rest

let rec parse_expr_st st = parse_assign st

and parse_assign st =
  let lhs = parse_cond st in
  match peek st with
  | Lexer.PUNCT "=" ->
      advance st;
      Eassign (lhs, parse_assign st)
  | Lexer.PUNCT "+=" ->
      advance st;
      Eassign_op (Add, lhs, parse_assign st)
  | Lexer.PUNCT "-=" ->
      advance st;
      Eassign_op (Sub, lhs, parse_assign st)
  | Lexer.PUNCT "*=" ->
      advance st;
      Eassign_op (Mul, lhs, parse_assign st)
  | Lexer.PUNCT "/=" ->
      advance st;
      Eassign_op (Div, lhs, parse_assign st)
  | Lexer.PUNCT "%=" ->
      advance st;
      Eassign_op (Mod, lhs, parse_assign st)
  | Lexer.PUNCT "&=" ->
      advance st;
      Eassign_op (Band, lhs, parse_assign st)
  | Lexer.PUNCT "|=" ->
      advance st;
      Eassign_op (Bor, lhs, parse_assign st)
  | Lexer.PUNCT "^=" ->
      advance st;
      Eassign_op (Bxor, lhs, parse_assign st)
  | Lexer.PUNCT "<<=" ->
      advance st;
      Eassign_op (Shl, lhs, parse_assign st)
  | Lexer.PUNCT ">>=" ->
      advance st;
      Eassign_op (Shr, lhs, parse_assign st)
  | _ -> lhs

and parse_cond st =
  let c = parse_lor st in
  if accept_punct st "?" then begin
    let t = parse_expr_st st in
    expect_punct st ":";
    let f = parse_cond st in
    Econd (c, t, f)
  end
  else c

and parse_binop_level st ops sub =
  let rec go lhs =
    match peek st with
    | Lexer.PUNCT p -> (
        match binop_of p ops with
        | Some op ->
            advance st;
            go (Ebinop (op, lhs, sub st))
        | None -> lhs)
    | _ -> lhs
  in
  go (sub st)

and parse_lor st = parse_binop_level st [ ("||", Lor) ] parse_land
and parse_land st = parse_binop_level st [ ("&&", Land) ] parse_bor
and parse_bor st = parse_binop_level st [ ("|", Bor) ] parse_bxor
and parse_bxor st = parse_binop_level st [ ("^", Bxor) ] parse_band
and parse_band st = parse_binop_level st [ ("&", Band) ] parse_equality
and parse_equality st = parse_binop_level st [ ("==", Eq); ("!=", Ne) ] parse_relational

and parse_relational st =
  parse_binop_level st [ ("<", Lt); ("<=", Le); (">", Gt); (">=", Ge) ] parse_shift

and parse_shift st = parse_binop_level st [ ("<<", Shl); (">>", Shr) ] parse_additive
and parse_additive st = parse_binop_level st [ ("+", Add); ("-", Sub) ] parse_multiplicative

and parse_multiplicative st =
  parse_binop_level st [ ("*", Mul); ("/", Div); ("%", Mod) ] parse_unary

and parse_unary st =
  match peek st with
  | Lexer.PUNCT "-" ->
      advance st;
      Eunop (Neg, parse_unary st)
  | Lexer.PUNCT "~" ->
      advance st;
      Eunop (Bnot, parse_unary st)
  | Lexer.PUNCT "!" ->
      advance st;
      Eunop (Lnot, parse_unary st)
  | Lexer.PUNCT "*" ->
      advance st;
      Ederef (parse_unary st)
  | Lexer.PUNCT "&" ->
      advance st;
      Eaddr (parse_unary st)
  | Lexer.PUNCT "++" ->
      advance st;
      Eincdec (Preinc, parse_unary st)
  | Lexer.PUNCT "--" ->
      advance st;
      Eincdec (Predec, parse_unary st)
  | Lexer.PUNCT "(" when is_type_start (peek2 st) ->
      advance st;
      let ty = parse_type st in
      expect_punct st ")";
      Ecast (ty, parse_unary st)
  | Lexer.KW "sizeof" ->
      advance st;
      if peek st = Lexer.PUNCT "(" && is_type_start (peek2 st) then begin
        advance st;
        let ty = parse_type st in
        expect_punct st ")";
        Esizeof_ty ty
      end
      else Esizeof_expr (parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let rec go e =
    match peek st with
    | Lexer.PUNCT "[" ->
        advance st;
        let idx = parse_expr_st st in
        expect_punct st "]";
        go (Eindex (e, idx))
    | Lexer.PUNCT "(" ->
        (* call through a computed function pointer, e.g. table[i](x) *)
        advance st;
        go (Ecall_ptr (e, parse_args st))
    | Lexer.PUNCT "." ->
        advance st;
        go (Efield (e, expect_ident st))
    | Lexer.PUNCT "->" ->
        advance st;
        go (Earrow (e, expect_ident st))
    | Lexer.PUNCT "++" ->
        advance st;
        go (Eincdec (Postinc, e))
    | Lexer.PUNCT "--" ->
        advance st;
        go (Eincdec (Postdec, e))
    | _ -> e
  in
  go (parse_primary st)

and parse_primary st =
  match next st with
  | Lexer.INT_LIT v -> Enum v
  | Lexer.CHAR_LIT c -> Enum (Int64.of_int (Char.code c))
  | Lexer.STR_LIT s -> Estr s
  | Lexer.IDENT name ->
      if accept_punct st "(" then begin
        let args = parse_args st in
        Ecall (name, args)
      end
      else Eident name
  | Lexer.PUNCT "(" ->
      let e = parse_expr_st st in
      expect_punct st ")";
      e
  | t -> fail st (Format.asprintf "expected an expression, found %a" Lexer.pp_token t)

and parse_args st =
  if accept_punct st ")" then []
  else
    let rec go acc =
      let e = parse_assign st in
      if accept_punct st "," then go (e :: acc)
      else begin
        expect_punct st ")";
        List.rev (e :: acc)
      end
    in
    go []

(* -- statements ----------------------------------------------------------- *)

(* abstract parameter-type list for a function-pointer declarator *)
let parse_funptr_params st =
  if accept_punct st ")" then []
  else if peek st = Lexer.KW "void" && peek2 st = Lexer.PUNCT ")" then begin
    advance st;
    expect_punct st ")";
    []
  end
  else begin
    let rec go acc =
      let pty, _ = parse_pointers st (parse_base_type st) in
      (* parameter names are allowed and ignored *)
      (match peek st with Lexer.IDENT _ -> advance st | _ -> ());
      if accept_punct st "," then go (pty :: acc)
      else begin
        expect_punct st ")";
        List.rev (pty :: acc)
      end
    in
    go []
  end

(* one declarator after the base type: pointers, name, array suffixes,
   or the function-pointer form  ret ( *name )(params)  *)
let parse_declarator st (base_ty, base_const) =
  let ty, const = parse_pointers st (base_ty, base_const) in
  if peek st = Lexer.PUNCT "(" && peek2 st = Lexer.PUNCT "*" then begin
    advance st;
    advance st;
    let name = expect_ident st in
    expect_punct st ")";
    expect_punct st "(";
    let fparams = parse_funptr_params st in
    (Tfunptr { fret = ty; fparams }, const, name)
  end
  else
  let name = expect_ident st in
  let rec arrays ty =
    if accept_punct st "[" then begin
      let n =
        match next st with
        | Lexer.INT_LIT v -> Int64.to_int v
        | t -> fail st (Format.asprintf "expected array size, found %a" Lexer.pp_token t)
      in
      expect_punct st "]";
      (* dimensions apply outside-in: int a[2][3] is 2 arrays of 3 *)
      Tarray (arrays ty, n)
    end
    else ty
  in
  (arrays ty, const, name)

let rec parse_stmt st =
  match peek st with
  | Lexer.PUNCT "{" -> Sblock (parse_block st)
  | Lexer.KW "if" ->
      advance st;
      expect_punct st "(";
      let c = parse_expr_st st in
      expect_punct st ")";
      let then_ = parse_stmt_as_block st in
      let else_ = if accept_kw st "else" then parse_stmt_as_block st else [] in
      Sif (c, then_, else_)
  | Lexer.KW "while" ->
      advance st;
      expect_punct st "(";
      let c = parse_expr_st st in
      expect_punct st ")";
      Swhile (c, parse_stmt_as_block st)
  | Lexer.KW "do" ->
      advance st;
      let body = parse_stmt_as_block st in
      if not (accept_kw st "while") then fail st "expected 'while' after do-body";
      expect_punct st "(";
      let c = parse_expr_st st in
      expect_punct st ")";
      expect_punct st ";";
      Sdo (body, c)
  | Lexer.KW "for" ->
      advance st;
      expect_punct st "(";
      let init =
        if accept_punct st ";" then None
        else if is_type_start (peek st) then begin
          let s = parse_decl_stmt st in
          Some s
        end
        else begin
          let e = parse_expr_st st in
          expect_punct st ";";
          Some (Sexpr e)
        end
      in
      let cond = if peek st = Lexer.PUNCT ";" then None else Some (parse_expr_st st) in
      expect_punct st ";";
      let update = if peek st = Lexer.PUNCT ")" then None else Some (parse_expr_st st) in
      expect_punct st ")";
      Sfor (init, cond, update, parse_stmt_as_block st)
  | Lexer.KW "return" ->
      advance st;
      if accept_punct st ";" then Sreturn None
      else begin
        let e = parse_expr_st st in
        expect_punct st ";";
        Sreturn (Some e)
      end
  | Lexer.KW "break" ->
      advance st;
      expect_punct st ";";
      Sbreak
  | Lexer.KW "continue" ->
      advance st;
      expect_punct st ";";
      Scontinue
  | t when is_type_start t -> parse_decl_stmt st
  | _ ->
      let e = parse_expr_st st in
      expect_punct st ";";
      Sexpr e

(* declaration statement, possibly with several comma-separated
   declarators; returns a single statement (block if several) *)
and parse_decl_stmt st =
  let base = parse_base_type st in
  let rec go acc =
    let ty, const, name = parse_declarator st base in
    let init = if accept_punct st "=" then Some (parse_assign st) else None in
    let decl = Sdecl { const; ty; name; init } in
    if accept_punct st "," then go (decl :: acc)
    else begin
      expect_punct st ";";
      List.rev (decl :: acc)
    end
  in
  match go [] with [ s ] -> s | ss -> Sblock ss

and parse_stmt_as_block st =
  match parse_stmt st with Sblock b -> b | s -> [ s ]

and parse_block st =
  expect_punct st "{";
  let rec go acc =
    if accept_punct st "}" then List.rev acc else go (parse_stmt st :: acc)
  in
  go []

(* -- top level ------------------------------------------------------------ *)

let parse_fields st =
  expect_punct st "{";
  let rec go acc =
    if accept_punct st "}" then List.rev acc
    else begin
      let base = parse_base_type st in
      let rec members acc =
        let ty, _const, name = parse_declarator st base in
        if accept_punct st "," then members ((ty, name) :: acc)
        else begin
          expect_punct st ";";
          List.rev ((ty, name) :: acc)
        end
      in
      go (List.rev_append (members []) acc)
    end
  in
  go []

let peek_third_is_brace st =
  match st.toks with _ :: _ :: { tok = Lexer.PUNCT "{"; _ } :: _ -> true | _ -> false

let parse_global_init st =
  if peek st = Lexer.PUNCT "{" then begin
    (* brace initializer encoded as a call to the pseudo-function
       __array_init, consumed by the type checker *)
    advance st;
    let rec go acc =
      if accept_punct st "}" then List.rev acc
      else begin
        let e = parse_assign st in
        if accept_punct st "," then go (e :: acc)
        else begin
          expect_punct st "}";
          List.rev (e :: acc)
        end
      end
    in
    Ecall ("__array_init", go [])
  end
  else parse_assign st

let parse_top st =
  match (peek st, peek2 st) with
  | Lexer.KW "struct", Lexer.IDENT name when peek_third_is_brace st ->
      advance st;
      advance st;
      let fields = parse_fields st in
      expect_punct st ";";
      Tstructdef (name, fields)
  | Lexer.KW "union", Lexer.IDENT name when peek_third_is_brace st ->
      advance st;
      advance st;
      let fields = parse_fields st in
      expect_punct st ";";
      Tuniondef (name, fields)
  | _ ->
      let base = parse_base_type st in
      let ty, const, name = parse_declarator st base in
      if accept_punct st "(" then begin
        (* function definition or prototype *)
        let params =
          if accept_punct st ")" then []
          else begin
            let rec go acc =
              if peek st = Lexer.KW "void" && peek2 st = Lexer.PUNCT ")" then begin
                advance st;
                expect_punct st ")";
                List.rev acc
              end
              else begin
                let pbase = parse_base_type st in
                let pty, _, pname = parse_declarator st pbase in
                (* array parameters decay to pointers *)
                let pty =
                  match pty with
                  | Tarray (elem, _) -> Tptr { pointee = elem; pointee_const = false }
                  | t -> t
                in
                let acc = { pty; pname } :: acc in
                if accept_punct st "," then go acc
                else begin
                  expect_punct st ")";
                  List.rev acc
                end
              end
            in
            go []
          end
        in
        if accept_punct st ";" then
          (* prototype: ignored *)
          Tglobal { const = true; ty = Tvoid; name = "__proto_" ^ name; init = None }
        else Tfunc { ret = ty; name; params; body = parse_block st }
      end
      else begin
        let init =
          if accept_punct st "=" then Some (parse_global_init st) else None
        in
        expect_punct st ";";
        Tglobal { const; ty; name; init }
      end

let parse src =
  let st = { toks = Lexer.tokenize src } in
  let rec go acc = if peek st = Lexer.EOF then List.rev acc else go (parse_top st :: acc) in
  let prog = go [] in
  (* drop ignored prototypes *)
  List.filter
    (function Tglobal { name; _ } -> not (String.length name > 8 && String.sub name 0 8 = "__proto_") | _ -> true)
    prog

let parse_expr src =
  let st = { toks = Lexer.tokenize src } in
  let e = parse_expr_st st in
  match peek st with
  | Lexer.EOF -> e
  | t -> fail st (Format.asprintf "trailing tokens after expression: %a" Lexer.pp_token t)
