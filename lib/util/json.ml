type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string * int

let fail pos msg = raise (Bad (msg, pos))

(* A cursor over the input; every parse_* consumes leading whitespace
   first, so the grammar functions never see blanks. *)
type cursor = { s : string; mutable i : int }

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let skip_ws c =
  while
    c.i < String.length c.s
    && match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.i <- c.i + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.i <- c.i + 1
  | _ -> fail c.i (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    value
  end
  else fail c.i ("expected " ^ word)

let parse_string_body c =
  let b = Buffer.create 16 in
  let rec go () =
    if c.i >= String.length c.s then fail c.i "unterminated string"
    else
      match c.s.[c.i] with
      | '"' -> c.i <- c.i + 1
      | '\\' ->
          if c.i + 1 >= String.length c.s then fail c.i "dangling escape";
          (match c.s.[c.i + 1] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if c.i + 5 >= String.length c.s then fail c.i "truncated \\u escape";
              let hex = String.sub c.s (c.i + 2) 4 in
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some v -> v
                | None -> fail c.i "bad \\u escape"
              in
              (* we only emit \u00XX for control bytes; decode the
                 low byte and pass anything wider through as UTF-8 *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
              end;
              c.i <- c.i + 4
          | ch -> fail c.i (Printf.sprintf "bad escape \\%c" ch));
          c.i <- c.i + 2;
          go ()
      | ch ->
          Buffer.add_char b ch;
          c.i <- c.i + 1;
          go ()
  in
  (match peek c with Some '"' -> c.i <- c.i + 1 | _ -> fail c.i "expected string");
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.i in
  let num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.i < String.length c.s && num_char c.s.[c.i] do
    c.i <- c.i + 1
  done;
  let lexeme = String.sub c.s start (c.i - start) in
  if lexeme = "" || float_of_string_opt lexeme = None then fail start "bad number";
  Num lexeme

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.i "unexpected end of input"
  | Some '"' -> Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '[' ->
      c.i <- c.i + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.i <- c.i + 1;
        Arr []
      end
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.i <- c.i + 1;
              items (v :: acc)
          | Some ']' ->
              c.i <- c.i + 1;
              List.rev (v :: acc)
          | _ -> fail c.i "expected ',' or ']'"
        in
        Arr (items [])
  | Some '{' ->
      c.i <- c.i + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.i <- c.i + 1;
        Obj []
      end
      else
        let field () =
          skip_ws c;
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          (k, parse_value c)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.i <- c.i + 1;
              fields (kv :: acc)
          | Some '}' ->
              c.i <- c.i + 1;
              List.rev (kv :: acc)
          | _ -> fail c.i "expected ',' or '}'"
        in
        Obj (fields [])
  | Some _ -> parse_number c

let parse s =
  let c = { s; i = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.i <> String.length s then fail c.i "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (msg, pos) -> Error (Printf.sprintf "%s at offset %d" msg pos)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Num n -> int_of_string_opt n
  | _ -> None

let to_float = function
  | Num n -> float_of_string_opt n
  | _ -> None

let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None

(* one member accessor, instantiated per value shape *)
let mem_str, mem_int, mem_float, mem_bool =
  let mem to_x k j = Option.bind (member k j) to_x in
  (mem to_string, mem to_int, mem to_float, mem to_bool)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let number f =
  if f <> f || f = infinity || f = neg_infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    (* shortest representation that round-trips: JSON has no precision
       promise, but our bench comparisons reparse these files *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let encode v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num n -> Buffer.add_string b n
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            go x)
          kvs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

let int n = Num (string_of_int n)
let float f = if f <> f then Null else Num (number f)
let bool b = Bool b
let str s = Str s
