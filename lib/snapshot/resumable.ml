module Json = Cheri_util.Json
module Machine = Cheri_isa.Machine

let note ~schema fields = Json.encode (Json.Obj (("schema", Json.Str schema) :: fields))

let open_note ~schema s =
  Result.bind (Json.parse s) (fun j ->
      match Json.mem_str "schema" j with
      | Some sch when sch = schema -> Ok j
      | Some sch -> Error ("foreign schema " ^ sch)
      | None -> Error "no schema")

let restore ~abi ~fresh ~check path =
  Result.bind (Snapshot.load path) (fun img ->
      match check (Snapshot.image_note img) with
      | Error why -> Error (Snapshot.Machine_mismatch ("checkpoint note: " ^ why))
      | Ok v ->
          let m = fresh () in
          Result.map (fun () -> (m, v)) (Snapshot.restore m ~abi img))

let resume ~schema ~accept ~abi ~fresh path =
  let check s =
    Result.bind (open_note ~schema s) (fun j ->
        Option.to_result ~none:"belongs to another task" (accept j))
  in
  (* a task that never checkpointed is the common case: answer it
     without a load, so the load counters count real loads *)
  if not (Sys.file_exists path) then None
  else Result.to_option (restore ~abi ~fresh ~check path)

let read_note path = Result.map Snapshot.image_note (Snapshot.load path)
let save ?note ~abi ~path m = ignore (Snapshot.save ?note ~abi ~path m)
let discard = Snapshot.remove
