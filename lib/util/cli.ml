(* The one argv loop shared by the driver binaries. Deliberately not
   Arg from the stdlib: these drivers predate it with their own
   conventions ([--flag=VALUE], optional-argument flags where a
   following word is positional, exit code 2 for usage errors) that
   Arg cannot express without fighting it. *)

type action =
  | Unit of (unit -> unit)
  | Arg of (string -> unit)
  | Opt of (string option -> unit)

type t = { name : string; metavar : string; doc : string; action : action }

let die fmt =
  Format.kfprintf
    (fun ppf ->
      Format.pp_print_newline ppf ();
      exit 2)
    Format.err_formatter fmt

let write_output ~flag path contents =
  match File.write path contents with Ok () -> () | Error msg -> die "%s: %s" flag msg

let unit name ~doc f = { name; metavar = ""; doc; action = Unit f }
let string name ~metavar ~doc f = { name; metavar; doc; action = Arg f }

let int ?(min = 0) name ~metavar ~doc f =
  let parse v =
    match int_of_string_opt v with
    | Some n when n >= min -> f n
    | _ ->
        die "%s expects %s, got %s" name
          (if min >= 1 then "a positive integer" else "a non-negative integer")
          v
  in
  { name; metavar; doc; action = Arg parse }

let float ?(strictly_positive = false) name ~metavar ~doc f =
  let parse v =
    match float_of_string_opt v with
    | Some x when (if strictly_positive then x > 0. else x >= 0.) -> f x
    | _ ->
        die "%s expects %s, got %s" name
          (if strictly_positive then "a positive number" else "a non-negative number")
          v
  in
  { name; metavar; doc; action = Arg parse }

let opt_string name ~metavar ~doc f =
  { name; metavar = "[=" ^ metavar ^ "]"; doc; action = Opt f }

let left_column fl =
  match fl.action with
  | Unit _ -> fl.name
  | Arg _ -> fl.name ^ " " ^ fl.metavar
  | Opt _ -> fl.name ^ fl.metavar

let help_text ~prog ~usage flags =
  let b = Buffer.create 512 in
  Buffer.add_string b ("usage: " ^ prog ^ " " ^ usage ^ "\n\noptions:\n");
  let rows =
    List.map (fun fl -> (left_column fl, fl.doc)) flags @ [ ("--help", "show this help") ]
  in
  let width = List.fold_left (fun w (l, _) -> max w (String.length l)) 0 rows in
  List.iter
    (fun (l, doc) ->
      Buffer.add_string b
        (Printf.sprintf "  %-*s  %s\n" width l doc))
    rows;
  Buffer.contents b

let split_eq a =
  match String.index_opt a '=' with
  | Some i when i > 0 && a.[0] = '-' ->
      Some (String.sub a 0 i, String.sub a (i + 1) (String.length a - i - 1))
  | _ -> None

let parse ~prog ~usage ?positional flags args =
  let find name = List.find_opt (fun fl -> fl.name = name) flags in
  let unknown a = die "%s: unknown flag %s (try --help)" prog a in
  let rec go = function
    | [] -> ()
    | ("--help" | "-h") :: _ ->
        print_string (help_text ~prog ~usage flags);
        exit 0
    | a :: rest -> (
        match split_eq a with
        | Some (name, v) -> (
            match find name with
            | Some { action = Arg f; _ } ->
                f v;
                go rest
            | Some { action = Opt f; _ } ->
                f (Some v);
                go rest
            | Some { action = Unit _; _ } -> die "%s does not take a value" name
            | None -> unknown name)
        | None ->
            if String.length a > 1 && a.[0] = '-' then (
              match find a with
              | Some { action = Unit f; _ } ->
                  f ();
                  go rest
              | Some { action = Opt f; _ } ->
                  f None;
                  go rest
              | Some { action = Arg f; _ } -> (
                  match rest with
                  | v :: rest' ->
                      f v;
                      go rest'
                  | [] -> die "%s requires an argument" a)
              | None -> unknown a)
            else
              match positional with
              | Some f ->
                  f a;
                  go rest
              | None -> die "%s: unexpected argument %s (try --help)" prog a)
  in
  go args
