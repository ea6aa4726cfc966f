let read path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg (* open's message names the path *)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          (* a directory opens, then fails here without naming itself *)
          match really_input_string ic (in_channel_length ic) with
          | s -> Ok s
          | exception Sys_error msg -> Error (path ^ ": " ^ msg)
          | exception End_of_file -> Error (path ^ ": file shrank while being read"))
