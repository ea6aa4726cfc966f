exception Resume_mismatch of string
exception Checkpoint_unwritable of string

type ('k, 'a) codec = {
  header : string;
  key : 'a -> 'k;
  encode : 'a -> string;
  decode : Json.t -> 'a option;
}

type error = Unreadable of string | Mismatch of string

let error_to_string = function Unreadable m | Mismatch m -> m

let load codec ~tasks path =
  Result.bind (Result.map_error (fun m -> Unreadable m) (File.read path)) (fun contents ->
      let header, body =
        match String.split_on_char '\n' contents with [] -> ("", []) | h :: b -> (h, b)
      in
      match Json.parse header with
      | Error e -> Error (Mismatch ("unreadable checkpoint header: " ^ e))
      | Ok j when Json.parse codec.header <> Ok j ->
          Error (Mismatch "checkpoint was written by a campaign with different parameters")
      | Ok _ ->
          (* only this campaign's tasks count: a record for any other
             key would inflate the resumed tallies *)
          let found = Hashtbl.create 64 in
          List.iter (fun k -> Hashtbl.replace found k None) tasks;
          List.iter
            (fun line ->
              (* a torn line (the tail of a killed run) does not parse *)
              match Option.bind (Result.to_option (Json.parse line)) codec.decode with
              | Some r when Hashtbl.mem found (codec.key r) ->
                  Hashtbl.replace found (codec.key r) (Some r)
              | _ -> ())
            body;
          Ok (List.filter_map (fun k -> Option.join (Hashtbl.find_opt found k)) tasks))

type ('k, 'a) t = {
  codec : ('k, 'a) codec;
  records : ('k, 'a) Hashtbl.t;
  restored : 'a list;
  oc : out_channel option;
}

let write_line oc s = output_string oc (s ^ "\n")

let start ?resume ?checkpoint codec ~tasks =
  (* read before rewriting: [resume] and [checkpoint] may be one file *)
  let restored =
    match Option.map (load codec ~tasks) resume with
    | None -> []
    | Some (Ok rs) -> rs
    | Some (Error e) -> raise (Resume_mismatch (error_to_string e))
  in
  let records = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace records (codec.key r) r) restored;
  let oc =
    Option.map
      (fun path ->
        let oc =
          try open_out_bin path with Sys_error msg -> raise (Checkpoint_unwritable msg)
        in
        List.iter (write_line oc) (codec.header :: List.map codec.encode restored);
        flush oc;
        oc)
      checkpoint
  in
  { codec; records; restored; oc }

let restored j = j.restored
let find j k = Hashtbl.find_opt j.records k

let record j r =
  Hashtbl.replace j.records (j.codec.key r) r;
  Option.iter (fun oc -> write_line oc (j.codec.encode r); flush oc) j.oc

let close j = Option.iter close_out j.oc
