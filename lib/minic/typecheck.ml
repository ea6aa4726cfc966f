open Ast
module T = Typed

exception Type_error of string

let err fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

type env = {
  structs : (string * (string * ty) list) list;
  unions : (string * (string * ty) list) list;
  globals : (string * (ty * bool)) list;  (* name -> ty, const *)
  funcs : (string * (ty * ty list)) list;  (* name -> ret, param types *)
  (* scopes: innermost first; each maps source name -> (unique name, ty, const) *)
  mutable scopes : (string * (string * ty * bool)) list list;
  mutable counter : int;
  current_ret : ty;
}

let push_scope env = env.scopes <- [] :: env.scopes
let pop_scope env = env.scopes <- List.tl env.scopes

let lookup_local env name =
  let rec go = function
    | [] -> None
    | scope :: rest -> ( match List.assoc_opt name scope with Some x -> Some x | None -> go rest)
  in
  go env.scopes

let declare_local env name ty const =
  let unique =
    if lookup_local env name = None && not (List.mem_assoc name env.globals) then name
    else begin
      env.counter <- env.counter + 1;
      Printf.sprintf "%s$%d" name env.counter
    end
  in
  (match env.scopes with
  | scope :: rest -> env.scopes <- ((name, (unique, ty, const)) :: scope) :: rest
  | [] -> err "internal: no scope");
  unique

(* -- type predicates and conversions ------------------------------------ *)

let is_void_ptr = function Tptr { pointee = Tvoid; _ } -> true | _ -> false

let promote ty =
  match ty with
  | Tint { bits; signed } when bits < 32 -> Tint { bits = 32; signed }
  | t -> t

(* usual arithmetic conversions on two promoted integer types *)
let common_int a b =
  let a = promote a and b = promote b in
  match (a, b) with
  | Tint ia, Tint ib ->
      if ia.bits = ib.bits then Tint { bits = ia.bits; signed = ia.signed && ib.signed }
      else if ia.bits > ib.bits then a
      else b
  | _ -> invalid_arg "common_int"

let rec decay (e : T.expr) =
  match e.ty with
  | Tarray (elem, _) -> (
      (* arrays decay to pointers to their first element *)
      match e.e with
      | T.Load lv -> { T.e = T.Addr_of { lv with lty = elem }; ty = ptr elem }
      | _ -> err "cannot decay non-lvalue array")
  | _ -> e

and coerce (e : T.expr) target =
  let e = decay e in
  if ty_equal e.ty target then e
  else
    match (e.ty, target) with
    | Tint _, Tint _ -> { T.e = T.Cast e; ty = target }
    | Tint _, Tintcap | Tintcap, Tint _ -> { T.e = T.Cast e; ty = target }
    | Tptr _, Tptr _ ->
        (* implicit pointer conversion: identical pointee, or either side
           void*; constness may be *added* implicitly *)
        let ok =
          is_void_ptr e.ty || is_void_ptr target
          ||
          match (e.ty, target) with
          | Tptr a, Tptr b -> ty_equal a.pointee b.pointee && ((not a.pointee_const) || b.pointee_const)
          | _ -> false
        in
        if ok then { T.e = T.Cast e; ty = target }
        else
          err "implicit conversion between incompatible pointer types %a and %a" pp_ty e.ty pp_ty
            target
    | Tint _, Tptr _ when e.e = T.Num 0L -> { T.e = T.Cast e; ty = target }
    | Tint _, Tfunptr _ when e.e = T.Num 0L -> { T.e = T.Cast e; ty = target }
    | Tintcap, Tptr _ | Tptr _, Tintcap -> { T.e = T.Cast e; ty = target }
    | _ -> err "cannot convert %a to %a" pp_ty e.ty pp_ty target

let null_of target = { T.e = T.Cast { T.e = T.Num 0L; ty = tint }; ty = target }

let to_long e = coerce e tlong

(* normalize an expression for use as a condition: integer-typed expr *)
let as_condition (e : T.expr) =
  let e = decay e in
  match e.ty with
  | Tint _ -> e
  | Tptr _ -> { T.e = T.Ptr_cmp (Ne, e, null_of e.ty); ty = tint }
  | Tintcap -> { T.e = T.Binop (Ne, to_long e, { T.e = T.Num 0L; ty = tlong }); ty = tint }
  | Tfunptr _ ->
      { T.e = T.Binop (Ne, { T.e = T.Cast e; ty = tlong }, { T.e = T.Num 0L; ty = tlong });
        ty = tint }
  | t -> err "%a cannot be used as a condition" pp_ty t

(* -- expression checking ------------------------------------------------- *)

let rec check_expr env (expr : Ast.expr) : T.expr =
  match expr with
  | Enum v ->
      let ty = if Int64.compare v 0x7fffffffL > 0 || Int64.compare v (-0x80000000L) < 0 then tlong else tint in
      { T.e = T.Num v; ty }
  | Estr s -> { T.e = T.Str s; ty = Tptr { pointee = tchar; pointee_const = true } }
  | Eident name
    when lookup_local env name = None
         && (not (List.mem_assoc name env.globals))
         && List.mem_assoc name env.funcs ->
      (* a bare function name decays to a pointer to the function *)
      let fret, fparams = List.assoc name env.funcs in
      { T.e = T.Fun_addr name; ty = Tfunptr { fret; fparams } }
  | Eaddr (Eident name)
    when lookup_local env name = None
         && (not (List.mem_assoc name env.globals))
         && List.mem_assoc name env.funcs ->
      let fret, fparams = List.assoc name env.funcs in
      { T.e = T.Fun_addr name; ty = Tfunptr { fret; fparams } }
  | Eident _ | Ederef _ | Eindex _ | Efield _ | Earrow _ ->
      let lv = check_lvalue env expr in
      (match lv.T.lty with
      | Tarray _ -> decay { T.e = T.Load lv; ty = lv.T.lty }
      | _ -> { T.e = T.Load lv; ty = lv.T.lty })
  | Eaddr e ->
      let lv = check_lvalue env e in
      let pointee =
        match lv.T.lty with
        | Tarray (elem, _) -> elem  (* &arr usable as pointer to first element *)
        | t -> t
      in
      { T.e = T.Addr_of lv; ty = Tptr { pointee; pointee_const = lv.T.lconst } }
  | Eunop (op, e) -> (
      let e' = decay (check_expr env e) in
      match op with
      | Lnot ->
          let c = as_condition e' in
          { T.e = T.Unop (Lnot, c); ty = tint }
      | Neg | Bnot -> (
          match e'.ty with
          | Tint _ ->
              let ty = promote e'.ty in
              { T.e = T.Unop (op, coerce e' ty); ty }
          | Tintcap ->
              (* unary ops on intcap_t lose provenance: computed as long
                 and converted back (matches a compiler materializing the
                 value in an integer register) *)
              let v = { T.e = T.Unop (op, to_long e'); ty = tlong } in
              { T.e = T.Cast v; ty = Tintcap }
          | t -> err "unary operator on %a" pp_ty t))
  | Eincdec (k, e) ->
      let lv = check_lvalue env e in
      if lv.T.lconst then err "increment of const lvalue";
      (match lv.T.lty with
      | Tint _ | Tptr _ | Tintcap -> ()
      | t -> err "cannot increment %a" pp_ty t);
      { T.e = T.Incdec (k, lv); ty = lv.T.lty }
  | Ebinop (op, a, b) -> check_binop env op a b
  | Eassign (lhs, rhs) -> check_assign env lhs rhs
  | Eassign_op (op, lhs, rhs) ->
      (* a op= b desugars to a = a op b, but the lvalue must be evaluated
         once; backends evaluate the Assign lvalue a single time, and the
         RHS re-checks the same lvalue (fine: our lvalues have no
         side-effecting subexpressions re-evaluated incorrectly in
         practice; C programs in this corpus use simple lvalues) *)
      check_expr env (Eassign (lhs, Ebinop (op, lhs, rhs)))
  | Ecall (name, args)
    when (match lookup_local env name with
         | Some (_, Tfunptr _, _) -> true
         | _ -> (
             match List.assoc_opt name env.globals with
             | Some (Tfunptr _, _) -> true
             | _ -> false)) ->
      check_call_ptr env (Eident name) args
  | Ecall (name, args) -> check_call env name args
  | Ecall_ptr (fn, args) -> check_call_ptr env fn args
  | Ecast (target, e) ->
      let e' = decay (check_expr env e) in
      check_cast e' target
  | Esizeof_ty ty -> { T.e = T.Sizeof ty; ty = tulong }
  | Esizeof_expr e ->
      let ty =
        match e with
        | Eident _ | Ederef _ | Eindex _ | Efield _ | Earrow _ -> (check_lvalue env e).T.lty
        | _ -> (check_expr env e).T.ty
      in
      { T.e = T.Sizeof ty; ty = tulong }
  | Econd (c, a, b) ->
      let c' = as_condition (check_expr env c) in
      let a' = decay (check_expr env a) in
      let b' = decay (check_expr env b) in
      let ty =
        if ty_equal a'.ty b'.ty then a'.ty
        else
          match (a'.ty, b'.ty) with
          | Tint _, Tint _ -> common_int a'.ty b'.ty
          | Tptr _, Tptr _ -> if is_void_ptr a'.ty then b'.ty else a'.ty
          | Tptr _, Tint _ -> a'.ty
          | Tint _, Tptr _ -> b'.ty
          | _ -> err "incompatible branches of ?:"
      in
      { T.e = T.Cond (c', coerce a' ty, coerce b' ty); ty }

and check_cast (e' : T.expr) target : T.expr =
  if ty_equal e'.ty target then e'
  else
    match (e'.ty, target) with
    | Tint _, Tint _
    | Tint _, Tintcap
    | Tintcap, Tint _
    | Tptr _, Tptr _
    | Tptr _, Tint _  (* ptr -> int: the INT idiom *)
    | Tint _, Tptr _  (* int -> ptr: the IA idiom *)
    | Tptr _, Tintcap
    | Tintcap, Tptr _ ->
        { T.e = T.Cast e'; ty = target }
    | Tvoid, _ | _, Tvoid ->
        if target = Tvoid then { T.e = T.Cast e'; ty = Tvoid }
        else err "cannot cast void to %a" pp_ty target
    | _ -> err "invalid cast from %a to %a" pp_ty e'.ty pp_ty target

and check_binop env op a b : T.expr =
  match op with
  | Land | Lor ->
      let a' = as_condition (check_expr env a) in
      let b' = as_condition (check_expr env b) in
      { T.e = T.Binop (op, a', b'); ty = tint }
  | Eq | Ne | Lt | Le | Gt | Ge -> (
      let a' = decay (check_expr env a) in
      let b' = decay (check_expr env b) in
      match (a'.ty, b'.ty) with
      | Tint _, Tint _ ->
          let c = common_int a'.ty b'.ty in
          { T.e = T.Binop (op, coerce a' c, coerce b' c); ty = tint }
      | Tptr _, Tptr _ -> { T.e = T.Ptr_cmp (op, a', coerce b' a'.ty); ty = tint }
      | Tptr _, Tint _ -> { T.e = T.Ptr_cmp (op, a', coerce b' a'.ty); ty = tint }
      | Tint _, Tptr _ -> { T.e = T.Ptr_cmp (op, coerce a' b'.ty, b'); ty = tint }
      | Tintcap, _ -> { T.e = T.Binop (op, to_long a', to_long b'); ty = tint }
      | _, Tintcap -> { T.e = T.Binop (op, to_long a', to_long b'); ty = tint }
      | Tfunptr _, _ | _, Tfunptr _ ->
          let as_long e =
            match e.T.ty with
            | Tfunptr _ -> { T.e = T.Cast e; ty = tlong }
            | _ -> to_long e
          in
          { T.e = T.Binop (op, as_long a', as_long b'); ty = tint }
      | _ -> err "invalid comparison between %a and %a" pp_ty a'.ty pp_ty b'.ty)
  | Add | Sub | Mul | Div | Mod | Shl | Shr | Band | Bor | Bxor -> (
      let a' = decay (check_expr env a) in
      let b' = decay (check_expr env b) in
      match (a'.ty, b'.ty, op) with
      | Tptr { pointee; _ }, Tint _, Add ->
          { T.e = T.Ptr_add { p = a'; i = to_long b'; elem = pointee }; ty = a'.ty }
      | Tint _, Tptr { pointee; _ }, Add ->
          { T.e = T.Ptr_add { p = b'; i = to_long a'; elem = pointee }; ty = b'.ty }
      | Tptr { pointee; _ }, Tint _, Sub ->
          let neg = { T.e = T.Unop (Neg, to_long b'); ty = tlong } in
          { T.e = T.Ptr_add { p = a'; i = neg; elem = pointee }; ty = a'.ty }
      | Tptr { pointee; _ }, Tptr _, Sub ->
          { T.e = T.Ptr_diff { a = a'; b = b'; elem = pointee }; ty = tlong }
      | Tintcap, _, _ -> { T.e = T.Intcap_arith (op, a', to_long b'); ty = Tintcap }
      | _, Tintcap, _ -> (
          (* provenance comes from the intcap side when meaningful *)
          match op with
          | Add | Band | Bor | Bxor | Mul ->
              { T.e = T.Intcap_arith (op, b', to_long a'); ty = Tintcap }
          | _ ->
              {
                T.e = T.Binop (op, to_long a', to_long b');
                ty = tlong;
              })
      | Tint _, Tint _, (Shl | Shr) ->
          let ty = promote a'.ty in
          { T.e = T.Binop (op, coerce a' ty, to_long b'); ty }
      | Tint _, Tint _, _ ->
          let c = common_int a'.ty b'.ty in
          { T.e = T.Binop (op, coerce a' c, coerce b' c); ty = c }
      | _ -> err "invalid operands %a and %a" pp_ty a'.ty pp_ty b'.ty)

and check_assign env lhs rhs : T.expr =
  let lv = check_lvalue env lhs in
  if lv.T.lconst then err "assignment to const lvalue";
  match lv.T.lty with
  | Tstruct _ | Tunion _ -> (
      let rhs' = check_expr env rhs in
      match rhs'.T.e with
      | T.Load _ when ty_equal rhs'.ty lv.T.lty -> { T.e = T.Assign (lv, rhs'); ty = lv.T.lty }
      | _ -> err "aggregate assignment requires an lvalue of the same type")
  | Tarray _ -> err "cannot assign to an array"
  | target ->
      let rhs' = coerce (check_expr env rhs) target in
      { T.e = T.Assign (lv, rhs'); ty = target }

and check_call env name args : T.expr =
  let args' = List.map (fun a -> decay (check_expr env a)) args in
  match T.builtin_of_name name with
  | Some b ->
      let expect tys ret =
        if List.length tys <> List.length args' then err "%s: wrong number of arguments" name;
        let coerced = List.map2 coerce args' tys in
        { T.e = T.Builtin (b, coerced); ty = ret }
      in
      (match b with
      | T.Bmalloc -> expect [ tulong ] (ptr Tvoid)
      | T.Bfree -> expect [ ptr Tvoid ] Tvoid
      | T.Bprint_int -> expect [ tlong ] Tvoid
      | T.Bprint_char -> expect [ tint ] Tvoid
      | T.Bprint_str -> expect [ Tptr { pointee = tchar; pointee_const = true } ] Tvoid
      | T.Bclock -> expect [] tlong
      | T.Bexit -> expect [ tint ] Tvoid)
  | None -> (
      match List.assoc_opt name env.funcs with
      | None -> err "call to undefined function %s" name
      | Some (ret, ptys) ->
          if List.length ptys <> List.length args' then err "%s: wrong number of arguments" name;
          { T.e = T.Call (name, List.map2 coerce args' ptys); ty = ret })

and check_call_ptr env fn args : T.expr =
  let fn' = decay (check_expr env fn) in
  match fn'.T.ty with
  | Tfunptr { fret; fparams } ->
      let args' = List.map (fun a -> decay (check_expr env a)) args in
      if List.length fparams <> List.length args' then
        err "indirect call: wrong number of arguments";
      { T.e = T.Call_ptr (fn', List.map2 coerce args' fparams); ty = fret }
  | t -> err "call through non-function-pointer %a" pp_ty t

and check_lvalue env (expr : Ast.expr) : T.lvalue =
  match expr with
  | Eident name -> (
      match lookup_local env name with
      | Some (unique, ty, const) -> { T.l = T.Lvar unique; lty = ty; lconst = const }
      | None -> (
          match List.assoc_opt name env.globals with
          | Some (ty, const) -> { T.l = T.Lglobal name; lty = ty; lconst = const }
          | None -> err "undefined variable %s" name))
  | Ederef e -> (
      let e' = decay (check_expr env e) in
      match e'.ty with
      | Tptr { pointee; pointee_const } ->
          if pointee = Tvoid then err "dereference of void*";
          { T.l = T.Lderef e'; lty = pointee; lconst = pointee_const }
      | Tintcap -> err "dereference of intcap_t without a cast"
      | t -> err "dereference of non-pointer %a" pp_ty t)
  | Eindex (a, i) -> check_lvalue env (Ederef (Ebinop (Add, a, i)))
  | Efield (base, field) -> (
      let blv = check_lvalue env base in
      match blv.T.lty with
      | (Tstruct _ | Tunion _) as agg ->
          let fty = find_field env agg field in
          { T.l = T.Lfield (blv, field); lty = fty; lconst = blv.T.lconst }
      | t -> err "field access on non-aggregate %a" pp_ty t)
  | Earrow (base, field) -> check_lvalue env (Efield (Ederef base, field))
  | _ -> err "expression is not an lvalue"

and find_field env agg field =
  let fields =
    match agg with
    | Tstruct tag -> (
        match List.assoc_opt tag env.structs with
        | Some fs -> fs
        | None -> err "unknown struct %s" tag)
    | Tunion tag -> (
        match List.assoc_opt tag env.unions with
        | Some fs -> fs
        | None -> err "unknown union %s" tag)
    | _ -> assert false
  in
  match List.assoc_opt field fields with
  | Some t -> t
  | None -> err "no field %s in %a" field pp_ty agg

(* -- statements ----------------------------------------------------------- *)

let rec check_stmt env (s : Ast.stmt) : T.stmt =
  match s with
  | Sexpr e -> T.Expr (check_expr env e)
  | Sdecl { const; ty; name; init } ->
      validate_ty env ty;
      let init' =
        Option.map
          (fun e ->
            match ty with
            | Tstruct _ | Tunion _ | Tarray _ -> err "aggregate local initializers unsupported"
            | _ -> coerce (check_expr env e) ty)
          init
      in
      let unique = declare_local env name ty const in
      T.Decl { name = unique; ty; const; init = init' }
  | Sif (c, a, b) ->
      let c' = as_condition (check_expr env c) in
      T.If (c', check_block env a, check_block env b)
  | Swhile (c, body) ->
      let c' = as_condition (check_expr env c) in
      T.While (c', check_block env body)
  | Sdo (body, c) ->
      let body' = check_block env body in
      T.Dowhile (body', as_condition (check_expr env c))
  | Sfor (init, cond, update, body) ->
      push_scope env;
      let init' = Option.map (check_stmt env) init in
      let cond' = Option.map (fun c -> as_condition (check_expr env c)) cond in
      let update' = Option.map (check_expr env) update in
      let body' = check_block env body in
      pop_scope env;
      T.For (init', cond', update', body')
  | Sreturn None ->
      if env.current_ret <> Tvoid then err "missing return value";
      T.Return None
  | Sreturn (Some e) ->
      if env.current_ret = Tvoid then err "return with a value in void function";
      T.Return (Some (coerce (check_expr env e) env.current_ret))
  | Sbreak -> T.Break
  | Scontinue -> T.Continue
  | Sblock b -> T.Block (check_block env b)

and check_block env stmts =
  push_scope env;
  let out = List.map (check_stmt env) stmts in
  pop_scope env;
  out

and validate_ty env = function
  | Tstruct tag -> if not (List.mem_assoc tag env.structs) then err "unknown struct %s" tag
  | Tunion tag -> if not (List.mem_assoc tag env.unions) then err "unknown union %s" tag
  | Tarray (t, n) ->
      if n <= 0 then err "array size must be positive";
      validate_ty env t
  | Tfunptr { fret; fparams } ->
      validate_ty env fret;
      List.iter (validate_ty env) fparams
  | Tptr _ | Tint _ | Tintcap | Tvoid -> ()

(* -- constant folding for global initializers ---------------------------- *)

let rec const_fold (e : Ast.expr) : int64 =
  match e with
  | Enum v -> v
  | Eunop (Neg, e) -> Int64.neg (const_fold e)
  | Eunop (Bnot, e) -> Int64.lognot (const_fold e)
  | Ebinop (op, a, b) -> (
      let a = const_fold a and b = const_fold b in
      match op with
      | Add -> Int64.add a b
      | Sub -> Int64.sub a b
      | Mul -> Int64.mul a b
      | Div -> if b = 0L then err "division by zero in constant" else Int64.div a b
      | Mod -> if b = 0L then err "division by zero in constant" else Int64.rem a b
      | Shl -> Int64.shift_left a (Int64.to_int b)
      | Shr -> Int64.shift_right a (Int64.to_int b)
      | Band -> Int64.logand a b
      | Bor -> Int64.logor a b
      | Bxor -> Int64.logxor a b
      | _ -> err "operator not allowed in constant initializer")
  | Ecast (_, e) -> const_fold e
  | _ -> err "global initializers must be constant expressions"

let check_ginit env ty init : T.ginit =
  ignore env;
  match init with
  | None -> T.Izero
  | Some (Estr s) -> (
      match ty with
      | Tarray (Tint { bits = 8; _ }, n) ->
          if String.length s + 1 > n then err "string initializer too long";
          T.Istr s
      | Tptr { pointee = Tint { bits = 8; _ }; _ } -> T.Istr s
      | _ -> err "string initializer for non-char type")
  | Some (Ecall ("__array_init", elems)) -> (
      match ty with
      | Tarray (Tint _, n) ->
          if List.length elems > n then err "too many initializers";
          T.Ilist (List.map const_fold elems)
      | _ -> err "brace initializer for non-array type")
  | Some e -> T.Iint (const_fold e)

(* -- program -------------------------------------------------------------- *)

let check_program (prog : Ast.program) : T.program =
  let structs =
    List.filter_map (function Tstructdef (n, fs) -> Some (n, List.map (fun (t, f) -> (f, t)) fs) | _ -> None) prog
  in
  let unions =
    List.filter_map (function Tuniondef (n, fs) -> Some (n, List.map (fun (t, f) -> (f, t)) fs) | _ -> None) prog
  in
  let globals_src =
    List.filter_map
      (function Tglobal { const; ty; name; init } -> Some (const, ty, name, init) | _ -> None)
      prog
  in
  let funcs_src =
    List.filter_map
      (function Tfunc { ret; name; params; body } -> Some (ret, name, params, body) | _ -> None)
      prog
  in
  let globals_env = List.map (fun (const, ty, name, _) -> (name, (ty, const))) globals_src in
  let funcs_env =
    List.map (fun (ret, name, params, _) -> (name, (ret, List.map (fun p -> p.pty) params))) funcs_src
  in
  List.iter
    (fun (_, name, _, _) ->
      if T.builtin_of_name name <> None then err "function %s shadows a builtin" name)
    funcs_src;
  let base_env =
    {
      structs;
      unions;
      globals = globals_env;
      funcs = funcs_env;
      scopes = [];
      counter = 0;
      current_ret = Tvoid;
    }
  in
  let globals =
    List.map
      (fun (const, ty, name, init) ->
        validate_ty base_env ty;
        { T.gname = name; gty = ty; gconst = const; ginit = check_ginit base_env ty init })
      globals_src
  in
  let funcs =
    List.map
      (fun (ret, name, params, fbody) ->
        let env = { base_env with current_ret = ret; scopes = []; counter = 0 } in
        push_scope env;
        List.iter
          (fun p ->
            validate_ty env p.pty;
            ignore (declare_local env p.pname p.pty false))
          params;
        let body = check_block env fbody in
        pop_scope env;
        { T.fname = name; ret; params = List.map (fun p -> (p.pname, p.pty)) params; body })
      funcs_src
  in
  let p = { T.structs; unions; globals; funcs } in
  if T.find_func p "main" = None then err "no main function";
  p

let compile src = check_program (Parser.parse src)
