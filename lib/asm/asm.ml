module Insn = Cheri_isa.Insn
module Machine = Cheri_isa.Machine
module Mem = Cheri_tagmem.Tagmem

module Builder = struct
  type t = {
    mutable code : Insn.t list;  (* reversed *)
    mutable code_len : int;
    code_labels : (string, int) Hashtbl.t;
    data : Buffer.t;
    data_labels : (string, int) Hashtbl.t;  (* offset into data buffer *)
    mutable fresh : int;
  }

  let create () =
    {
      code = [];
      code_len = 0;
      code_labels = Hashtbl.create 64;
      data = Buffer.create 256;
      data_labels = Hashtbl.create 64;
      fresh = 0;
    }

  let label t name =
    if Hashtbl.mem t.code_labels name then
      invalid_arg (Printf.sprintf "Asm.Builder.label: %s redefined" name);
    Hashtbl.replace t.code_labels name t.code_len

  let fresh_label t prefix =
    t.fresh <- t.fresh + 1;
    Printf.sprintf ".%s_%d" prefix t.fresh

  let emit t insn =
    t.code <- insn :: t.code;
    t.code_len <- t.code_len + 1

  let here t = t.code_len

  let data_label t name =
    if Hashtbl.mem t.data_labels name then
      invalid_arg (Printf.sprintf "Asm.Builder.data_label: %s redefined" name);
    Hashtbl.replace t.data_labels name (Buffer.length t.data)

  let data_bytes t s = Buffer.add_string t.data s

  let data_word t v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    Buffer.add_bytes t.data b

  let data_zeros t n = Buffer.add_string t.data (String.make n '\000')

  let data_align t n =
    let len = Buffer.length t.data in
    let padded = (len + n - 1) / n * n in
    data_zeros t (padded - len)
end

type linked = {
  code : Insn.t array;
  data : bytes;
  data_base : int64;
  code_symbols : (string * int) list;
  data_symbols : (string * int64) list;
  decoded : Cheri_isa.Decoded.program option Atomic.t;
}

exception Undefined_symbol of string

let link ?(data_base = 0x10000L) (b : Builder.t) =
  (* Filled in place from a [Nop]-initialised array: [Array.of_list] or
     [Array.map] seeds the array with a young boxed instruction, and
     [caml_make_vect] empties the minor heap first whenever that array
     is too large for it (over 256 instructions). *)
  let n = b.Builder.code_len in
  let code = Array.make n Insn.Nop in
  List.iteri (fun i insn -> code.(n - 1 - i) <- insn) b.Builder.code;
  let resolve_target = function
    | Insn.Abs _ as t -> t
    | Insn.Sym s -> (
        match Hashtbl.find_opt b.Builder.code_labels s with
        | Some i -> Insn.Abs i
        | None -> raise (Undefined_symbol s))
  in
  let resolve_imm = function
    | Insn.Imm _ as i -> i
    | Insn.Sym_addr (s, addend) -> (
        match Hashtbl.find_opt b.Builder.data_labels s with
        | Some off -> Insn.Imm (Int64.add data_base (Int64.add (Int64.of_int off) addend))
        | None -> (
            match Hashtbl.find_opt b.Builder.code_labels s with
            | Some idx -> Insn.Imm (Int64.add (Int64.of_int idx) addend)
            | None -> raise (Undefined_symbol s)))
  in
  Array.iteri
    (fun k i -> code.(k) <- Insn.map_imm resolve_imm (Insn.map_target resolve_target i))
    code;
  {
    code;
    data = Buffer.to_bytes b.Builder.data;
    data_base;
    code_symbols = Hashtbl.fold (fun k v acc -> (k, v) :: acc) b.Builder.code_labels [];
    data_symbols =
      Hashtbl.fold
        (fun k v acc -> (k, Int64.add data_base (Int64.of_int v)) :: acc)
        b.Builder.data_labels [];
    decoded = Atomic.make None;
  }

let code_symbol l name =
  match List.assoc_opt name l.code_symbols with
  | Some i -> i
  | None -> raise (Undefined_symbol name)

let data_symbol l name =
  match List.assoc_opt name l.data_symbols with
  | Some a -> a
  | None -> raise (Undefined_symbol name)

(* Two domains that both find [None] both decode; the one whose
   [compare_and_set] fails drops its table and takes the winner's. *)
let program l =
  match Atomic.get l.decoded with
  | Some p -> p
  | None ->
      let p = Cheri_isa.Decoded.compile l.code in
      if Atomic.compare_and_set l.decoded None (Some p) then p
      else Option.get (Atomic.get l.decoded)

let make_machine ?config l =
  let config =
    match config with
    | Some c -> { c with Machine.data_base = l.data_base }
    | None -> { (Machine.default_config Cheri_core.Cap_ops.V3) with data_base = l.data_base }
  in
  let m = Machine.create config ~program:(program l) in
  if Bytes.length l.data > 0 then begin
    Mem.store_bytes_i64 (Machine.mem m) ~addr:l.data_base l.data;
    Machine.reserve_data m l.data_base (Int64.of_int (Bytes.length l.data))
  end;
  m

let run_code ?config ?fuel insns =
  let b = Builder.create () in
  List.iter (Builder.emit b) insns;
  let l = link b in
  let m = make_machine ?config l in
  (Machine.run ?fuel m, m)
