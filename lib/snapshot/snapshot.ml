(* The cheri_c.snap/v1 on-disk format.

   A snapshot is one self-describing file:

     "cheri_c.snap/v1\n"            format magic, newline-terminated
     u32 LE                         header length in bytes
     header JSON                    machine identity + body_bytes + note
     binary body (LE)               the Machine.Snap.t payload
     u32 LE                         CRC-32 over everything above

   The header is JSON so `cheri-snap info` (and a curious `head -2`)
   can describe an image without decoding the body; the body is raw
   little-endian binary because the dominant content is memory pages
   and registers, where JSON would triple the size for nothing. The
   trailing CRC distinguishes bit rot from truncation: a short file
   fails the length check declared in the header (Truncated), a
   same-length corrupt file fails the CRC (Crc_mismatch).

   Each image has a standing spare beside it, `path.tmp`. A save
   overwrites the spare in place, cuts it to the image's length and
   swaps it with the image in one atomic exchange, so the real name
   always holds a complete image: a crash mid-save tears only the
   spare, which nothing reads. After the swap the spare holds the
   previous image, and the next save rewrites it in blocks the file
   system has already allocated, instead of creating a file and
   freeing the old one on every save. *)

module Machine = Cheri_isa.Machine
module Cache = Cheri_isa.Cache
module Insn = Cheri_isa.Insn
module Cap = Cheri_core.Capability
module Perms = Cheri_core.Perms
module Ops = Cheri_core.Cap_ops
module Json = Cheri_util.Json
module Obs = Cheri_obs.Obs
module Tagmem = Cheri_tagmem.Tagmem

(* Save/restore latency and volume land in the process-wide registry:
   per-operation cost only (one observation per file, never per
   instruction), so the null-registry perf budgets are untouched. The
   spans parent to whatever [Span.with_] region encloses the call —
   a sidecar save inside a campaign slice nests under that slice. *)
let m_saves = Obs.counter Obs.default "snapshot_saves_total"
let m_save_bytes = Obs.counter Obs.default "snapshot_save_bytes_total"
let m_save_s = Obs.histogram Obs.default "snapshot_save_seconds"

(* Pages (4 KiB data pages plus tag-store pages) the save's zero scan
   examined, a count: the deterministic cost proxy of a checkpoint.
   Only pages overlapping chunks the program has written are scanned
   (see {!Tagmem.snapshot_pages}), so a small program's save scans a
   handful, not the 8192 + 256 of a 32 MiB memory. *)
let m_pages_scanned = Obs.counter Obs.default "snapshot_pages_scanned_total"

(* Saves that returned an error, a count: the file system refused the
   spare, a write or the swap. The save, load and restore totals count
   successes only. Checkpoint callers such as
   {!Resumable.save} drop the error, so this is where a failing
   checkpoint shows. *)
let m_save_errors = Obs.counter Obs.default "snapshot_save_errors_total"

let m_loads = Obs.counter Obs.default "snapshot_loads_total"
let m_load_s = Obs.histogram Obs.default "snapshot_load_seconds"
let m_restores = Obs.counter Obs.default "snapshot_restores_total"
let m_restore_s = Obs.histogram Obs.default "snapshot_restore_seconds"

let timed counter hist label f =
  Obs.Span.with_ Obs.default label (fun () ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      if Result.is_ok r then begin
        Obs.Counter.incr counter;
        Obs.Histogram.observe hist (Unix.gettimeofday () -. t0)
      end;
      r)

let format_version = "cheri_c.snap/v1"
let magic = format_version ^ "\n"

type error =
  | Io of string
  | Truncated of string
  | Crc_mismatch of { stored : int; computed : int }
  | Version_mismatch of { found : string }
  | Machine_mismatch of string

let pp_error ppf = function
  | Io msg -> Format.fprintf ppf "i/o error: %s" msg
  | Truncated why ->
      Format.fprintf ppf
        "truncated snapshot: %s; the file is incomplete — re-create it with \
         --snapshot"
        why
  | Crc_mismatch { stored; computed } ->
      Format.fprintf ppf
        "snapshot checksum mismatch (file says %08x, contents hash to %08x); \
         the file is corrupt — re-create it with --snapshot"
        (stored land 0xffffffff)
        (computed land 0xffffffff)
  | Version_mismatch { found } ->
      Format.fprintf ppf
        "not a %s image (file starts with %S); it was written by a different \
         tool or format revision — re-create the snapshot with this build"
        format_version found
  | Machine_mismatch why ->
      Format.fprintf ppf
        "snapshot does not fit this machine: %s; resume with the same \
         program, ABI and machine configuration that produced it"
        why

let error_to_string e = Format.asprintf "%a" pp_error e

(* ------------------------------------------------------------------ *)
(* Code identity                                                       *)

(* The snapshot does not embed the code array (it is immutable and the
   caller recompiles it from source); instead the header pins a digest
   of the printed instruction stream so a resume against a different
   program is refused instead of silently executing garbage. The hash
   itself lives with the decoded-program representation
   ({!Cheri_isa.Decoded.digest}) and is computed over the *source*
   stream, so images hashed before the decode stage existed still
   match. *)
let code_digest ~abi code = Cheri_isa.Decoded.source_digest ~abi code
let machine_digest ~abi m = Cheri_isa.Decoded.digest ~abi (Machine.program m)

(* ------------------------------------------------------------------ *)
(* Header                                                              *)

type header = {
  h_abi : string;
  h_revision : string;
  h_mem_size : int;
  h_data_base : int64;
  h_stack_bytes : int;
  h_trapv : bool;
  h_timing : int array;  (* the 8 Cache.Timing.config fields, in order *)
  h_code_digest : string;
  h_body_bytes : int;
  h_note : string;
}

let revision_key = function Ops.V2 -> "v2" | Ops.V3 -> "v3"

let timing_fields (c : Cache.Timing.config) =
  [| c.l1_size; c.l1_ways; c.l2_size; c.l2_ways; c.line_bytes;
     c.l1_hit_cycles; c.l2_hit_cycles; c.memory_cycles |]

let timing_names =
  [| "l1_size"; "l1_ways"; "l2_size"; "l2_ways"; "line_bytes";
     "l1_hit_cycles"; "l2_hit_cycles"; "memory_cycles" |]

let header_of_machine ~abi ~note ~body_bytes m =
  let cfg = Machine.config m in
  {
    h_abi = abi;
    h_revision = revision_key cfg.revision;
    h_mem_size = cfg.mem_size;
    h_data_base = cfg.data_base;
    h_stack_bytes = cfg.stack_bytes;
    h_trapv = cfg.trap_on_signed_overflow;
    h_timing = timing_fields cfg.timing;
    h_code_digest = machine_digest ~abi m;
    h_body_bytes = body_bytes;
    h_note = note;
  }

let header_to_json h =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "{\"schema\":\"%s\"" format_version);
  Buffer.add_string b (Printf.sprintf ",\"abi\":\"%s\"" (Json.escape h.h_abi));
  Buffer.add_string b (Printf.sprintf ",\"revision\":\"%s\"" h.h_revision);
  Buffer.add_string b (Printf.sprintf ",\"mem_size\":%d" h.h_mem_size);
  Buffer.add_string b (Printf.sprintf ",\"data_base\":%Ld" h.h_data_base);
  Buffer.add_string b (Printf.sprintf ",\"stack_bytes\":%d" h.h_stack_bytes);
  Buffer.add_string b (Printf.sprintf ",\"trapv\":%b" h.h_trapv);
  Array.iteri
    (fun i v -> Buffer.add_string b (Printf.sprintf ",\"%s\":%d" timing_names.(i) v))
    h.h_timing;
  Buffer.add_string b
    (Printf.sprintf ",\"code_digest\":\"%s\"" h.h_code_digest);
  Buffer.add_string b (Printf.sprintf ",\"body_bytes\":%d" h.h_body_bytes);
  Buffer.add_string b (Printf.sprintf ",\"note\":\"%s\"" (Json.escape h.h_note));
  Buffer.add_char b '}';
  Buffer.contents b

exception Bad_header of string

let header_of_json j =
  let get k conv what =
    match Option.bind (Json.member k j) conv with
    | Some v -> v
    | None -> raise (Bad_header ("header is missing " ^ what ^ " field " ^ k))
  in
  let str k = get k Json.to_string "string" in
  let int k = get k Json.to_int "integer" in
  try
    Ok
      {
        h_abi = str "abi";
        h_revision = str "revision";
        h_mem_size = int "mem_size";
        h_data_base = Int64.of_int (int "data_base");
        h_stack_bytes = int "stack_bytes";
        h_trapv = get "trapv" Json.to_bool "boolean";
        h_timing = Array.map int timing_names;
        h_code_digest = str "code_digest";
        h_body_bytes = int "body_bytes";
        h_note =
          (match Json.mem_str "note" j with
          | Some v -> v
          | None -> "");
      }
  with Bad_header why -> Error why

(* ------------------------------------------------------------------ *)
(* Body encoding                                                       *)

let w32 b v = Buffer.add_int32_le b (Int32.of_int v)
let w64 b v = Buffer.add_int64_le b v
let wint b v = Buffer.add_int64_le b (Int64.of_int v)
let wopt b = function None -> wint b (-1) | Some v -> wint b v

let wstr b s =
  w32 b (String.length s);
  Buffer.add_string b s

let wcap b (c : Cap.t) =
  Buffer.add_uint8 b ((if c.Cap.tag then 1 else 0) lor (if c.Cap.sealed then 2 else 0));
  Buffer.add_uint8 b (Int64.to_int (Perms.to_bits c.Cap.perms) land 0xff);
  w64 b c.Cap.base;
  w64 b c.Cap.length;
  w64 b c.Cap.offset;
  w64 b c.Cap.otype

let wpairs b l =
  w32 b (List.length l);
  List.iter
    (fun (x, y) ->
      w64 b x;
      w64 b y)
    l

let wints b a =
  w32 b (Array.length a);
  Array.iter (fun v -> wint b v) a

(* The body's length and a writer that hands it to [emit] in order.
   The data-page section comes from a page source, not from
   [s.s_data_pages]: [pages] lists the (index, length) of each page,
   ascending, and [blit idx buf pos] copies one into [buf] at [pos] —
   a save reads them straight out of the machine's memory. The small
   fields accumulate in two strings, before and after the data pages;
   each page is copied behind its 8-byte (index, length) prefix into
   one reusable buffer. A save therefore allocates nothing per page: a
   fresh string per page made 1.57 MB of garbage per save on the
   tenant workload, and that garbage set the major GC's pace. *)
let encode_body (s : Machine.Snap.t) ~pages ~blit =
  let b = Buffer.create 4096 in
  wstr b s.s_gprs;
  Array.iter (wcap b) s.s_caps;
  wcap b s.s_pcc;
  wint b s.s_pc;
  wint b s.s_cycles;
  wint b s.s_instret;
  wint b s.s_loads;
  wint b s.s_stores;
  wint b s.s_cap_loads;
  wint b s.s_cap_stores;
  w64 b s.s_heap_allocated;
  wint b s.s_allocs;
  wint b s.s_frees;
  wint b s.s_syscalls;
  wopt b s.s_alloc_fail_after;
  wopt b s.s_free_fail_after;
  wstr b s.s_output;
  wpairs b s.s_allocated;
  wpairs b s.s_free_list;
  wints b s.s_icache;
  wints b s.s_l1;
  wints b s.s_l2;
  w32 b (List.length pages);
  let head = Buffer.contents b in
  Buffer.clear b;
  w32 b (List.length s.s_tag_pages);
  List.iter
    (fun (idx, page) ->
      w32 b idx;
      wstr b page)
    s.s_tag_pages;
  let tail = Buffer.contents b in
  let data_bytes = List.fold_left (fun n (_, len) -> n + 8 + len) 0 pages in
  let write emit =
    emit head 0 (String.length head);
    let buf = Bytes.create (8 + Machine.Snap.page_bytes) in
    List.iter
      (fun (idx, len) ->
        Bytes.set_int32_le buf 0 (Int32.of_int idx);
        Bytes.set_int32_le buf 4 (Int32.of_int len);
        blit idx buf 8;
        emit (Bytes.unsafe_to_string buf) 0 (8 + len))
      pages;
    emit tail 0 (String.length tail)
  in
  (String.length head + data_bytes + String.length tail, write)

(* ------------------------------------------------------------------ *)
(* Body decoding                                                       *)

(* The CRC has already passed when we decode, so a failure here means a
   format bug or a deliberately crafted file; either way it surfaces as
   a structured Truncated error, never an escaping exception. *)
exception Short of string

(* The body is read in place, between [pos] and [stop] of the whole
   file image, so a load holds one image-sized string, not two. *)
type reader = { buf : string; mutable pos : int; stop : int }

let need r n what = if n > r.stop - r.pos then raise (Short ("body ends inside " ^ what))

let r32 r what =
  need r 4 what;
  let v = Int32.to_int (String.get_int32_le r.buf r.pos) in
  r.pos <- r.pos + 4;
  v

let rcount r what =
  let v = r32 r what in
  if v < 0 then raise (Short ("negative count in " ^ what));
  v

let r64 r what =
  need r 8 what;
  let v = String.get_int64_le r.buf r.pos in
  r.pos <- r.pos + 8;
  v

let rint r what =
  let v = r64 r what in
  let n = Int64.to_int v in
  if Int64.of_int n <> v then raise (Short ("64-bit counter overflows int in " ^ what));
  n

let ropt r what = match rint r what with -1 -> None | v when v >= 0 -> Some v
  | _ -> raise (Short ("negative optional in " ^ what))

let rstr r what =
  let len = rcount r what in
  need r len what;
  let s = String.sub r.buf r.pos len in
  r.pos <- r.pos + len;
  s

let rbyte r what =
  need r 1 what;
  let v = Char.code (String.unsafe_get r.buf r.pos) in
  r.pos <- r.pos + 1;
  v

let rcap r what =
  let flags = rbyte r what in
  let perms = Perms.of_bits_int (rbyte r what) in
  let base = r64 r what in
  let length = r64 r what in
  let offset = r64 r what in
  let otype = r64 r what in
  Cap.of_fields_unchecked
    ~tag:(flags land 1 <> 0)
    ~base ~length ~offset ~perms
    ~sealed:(flags land 2 <> 0)
    ~otype

let rpairs r what =
  let n = rcount r what in
  List.init n (fun _ ->
      let x = r64 r what in
      let y = r64 r what in
      (x, y))

let rints r what =
  let n = rcount r what in
  Array.init n (fun _ -> rint r what)

let rpages r what =
  let n = rcount r what in
  List.init n (fun _ ->
      let idx = rcount r what in
      let page = rstr r what in
      (idx, page))

let decode_body buf ~pos ~len : Machine.Snap.t =
  let r = { buf; pos; stop = pos + len } in
  let s_gprs = rstr r "registers" in
  let s_caps = Array.init 32 (fun _ -> rcap r "capability registers") in
  let s_pcc = rcap r "pcc" in
  let s_pc = rint r "pc" in
  let s_cycles = rint r "cycles" in
  let s_instret = rint r "instret" in
  let s_loads = rint r "loads" in
  let s_stores = rint r "stores" in
  let s_cap_loads = rint r "cap_loads" in
  let s_cap_stores = rint r "cap_stores" in
  let s_heap_allocated = r64 r "heap_allocated" in
  let s_allocs = rint r "allocs" in
  let s_frees = rint r "frees" in
  let s_syscalls = rint r "syscalls" in
  let s_alloc_fail_after = ropt r "alloc_fail_after" in
  let s_free_fail_after = ropt r "free_fail_after" in
  let s_output = rstr r "program output" in
  let s_allocated = rpairs r "allocated blocks" in
  let s_free_list = rpairs r "free list" in
  let s_icache = rints r "icache state" in
  let s_l1 = rints r "l1 state" in
  let s_l2 = rints r "l2 state" in
  let s_data_pages = rpages r "data pages" in
  let s_tag_pages = rpages r "tag pages" in
  if r.pos <> r.stop then raise (Short "trailing bytes after the last field");
  {
    Machine.Snap.s_gprs; s_caps; s_pcc; s_pc; s_cycles; s_instret; s_loads;
    s_stores; s_cap_loads; s_cap_stores; s_heap_allocated; s_allocs; s_frees;
    s_syscalls; s_alloc_fail_after; s_free_fail_after; s_output; s_allocated;
    s_free_list; s_icache; s_l1; s_l2; s_data_pages; s_tag_pages;
  }

(* ------------------------------------------------------------------ *)
(* Save                                                                *)

let le32 v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Bytes.to_string b

let spare path = path ^ ".tmp"
let remove_file f = try Sys.remove f with Sys_error _ -> ()
let remove_spare path = remove_file (spare path)

let remove path =
  remove_file path;
  remove_spare path

external exchange : string -> string -> bool = "cheri_snapshot_exchange"

(* Swap the written spare in as [path]. Only a regular file is
   exchanged: swapping a directory (or anything else) would move it
   under the spare's name. That case, a missing [path] and a refused
   exchange (another OS, a file system without it) take the plain
   rename, which replaces [path] or fails as a save always has. *)
let install ~spare path =
  let regular =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_REG; _ } -> true
    | _ -> false
    | exception Unix.Unix_error _ -> false
  in
  if not (regular && exchange spare path) then Sys.rename spare path

let save ?(note = "") ~abi ~path m =
  timed m_saves m_save_s "snapshot.save" @@ fun () ->
  let mem = Machine.mem m in
  let scanned0 = Tagmem.pages_scanned mem in
  let snap, pages = Machine.snapshot_sparse m in
  Obs.Counter.incr ~by:(Tagmem.pages_scanned mem - scanned0) m_pages_scanned;
  let blit = Tagmem.blit_data_page mem ~page_bytes:Machine.Snap.page_bytes in
  let body_bytes, write_body = encode_body snap ~pages ~blit in
  let header = header_to_json (header_of_machine ~abi ~note ~body_bytes m) in
  let lead = magic ^ le32 (String.length header) ^ header in
  let size = String.length lead + body_bytes + 4 in
  let tmp = spare path in
  let failed msg =
    Obs.Counter.incr m_save_errors;
    Error (Io msg)
  in
  let unix_failed e = failed (tmp ^ ": " ^ Unix.error_message e) in
  (* no O_TRUNC: the spare's blocks are rewritten in place, and the
     ftruncate below drops whatever a longer previous image left *)
  match Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o666 with
  | exception Unix.Unix_error (e, _, _) -> unix_failed e
  | fd -> (
      let oc = Unix.out_channel_of_descr fd in
      (* a failed write (a full disk, say) or rename (onto a directory,
         say) must not leak the channel or the spare *)
      let abandon () =
        close_out_noerr oc;
        remove_file tmp
      in
      try
        (* stream the image to the file, folding each piece into the
           CRC as it goes out, instead of assembling it in memory first *)
        let crc = ref 0 in
        let emit s pos len =
          output_substring oc s pos len;
          crc := Crc32.update_sub !crc s ~pos ~len
        in
        emit lead 0 (String.length lead);
        write_body emit;
        output_string oc (le32 !crc);
        flush oc;
        Unix.ftruncate fd size;
        close_out oc;
        install ~spare:tmp path;
        Obs.Counter.incr ~by:size m_save_bytes;
        Ok size
      with
      | Sys_error msg ->
          abandon ();
          failed msg
      | Unix.Unix_error (e, _, _) ->
          abandon ();
          unix_failed e)

(* ------------------------------------------------------------------ *)
(* Load                                                                *)

type image = { i_header : header; i_snap : Machine.Snap.t }

let image_abi i = i.i_header.h_abi
let image_note i = i.i_header.h_note
let image_instret i = i.i_snap.Machine.Snap.s_instret

let first_line s =
  let cut = match String.index_opt s '\n' with Some i -> i | None -> String.length s in
  String.sub s 0 (min cut 48)

let crc_of_file contents =
  let n = String.length contents in
  let stored = Int32.to_int (String.get_int32_le contents (n - 4)) land 0xffffffff in
  let computed = Crc32.digest_sub contents ~pos:0 ~len:(n - 4) in
  (stored, computed)

let load path =
  timed m_loads m_load_s "snapshot.load" @@ fun () ->
  match Result.map_error (fun m -> Io m) (Cheri_util.File.read path) with
  | Error _ as e -> e
  | Ok contents -> (
      let n = String.length contents in
      let ml = String.length magic in
      if n < ml then
        if String.sub magic 0 n = contents then
          (* a prefix of our own magic — or nothing at all: written by
             us, cut short. The offset tells the operator exactly how
             short (a 0-byte file is a crash before the first write hit
             the disk, a 20-byte one died mid-rename-source). *)
          Error
            (Truncated
               (Printf.sprintf "file ends inside the format magic at byte %d of %d" n ml))
        else Error (Version_mismatch { found = first_line contents })
      else if String.sub contents 0 ml <> magic then
        Error (Version_mismatch { found = first_line contents })
      else if n < ml + 4 then
        Error
          (Truncated
             (Printf.sprintf "file ends before the header length at byte %d of %d" n (ml + 4)))
      else
        let hlen = Int32.to_int (String.get_int32_le contents ml) in
        if hlen < 0 then
          Error (Truncated (Printf.sprintf "header length field is negative (%d)" hlen))
        else if ml + 4 + hlen + 4 > n then
          Error
            (Truncated
               (Printf.sprintf "file ends inside the header at byte %d of %d" n
                  (ml + 4 + hlen + 4)))
        else
          match Json.parse (String.sub contents (ml + 4) hlen) with
          | Error why ->
              (* Same-length corruption inside the header shows up here
                 before the length check can run; let the CRC decide
                 whether to call it corruption or truncation. *)
              let stored, computed = crc_of_file contents in
              if stored <> computed then Error (Crc_mismatch { stored; computed })
              else Error (Truncated ("unreadable header: " ^ why))
          | Ok j -> (
              match header_of_json j with
              | Error why ->
                  let stored, computed = crc_of_file contents in
                  if stored <> computed then Error (Crc_mismatch { stored; computed })
                  else Error (Truncated why)
              | Ok h ->
                  let declared = ml + 4 + hlen + h.h_body_bytes + 4 in
                  if n < declared then
                    Error
                      (Truncated
                         (Printf.sprintf
                            "file is %d bytes but the header declares %d" n declared))
                  else if n > declared then
                    Error
                      (Truncated
                         (Printf.sprintf
                            "%d trailing bytes after the declared image"
                            (n - declared)))
                  else
                    let stored, computed = crc_of_file contents in
                    if stored <> computed then Error (Crc_mismatch { stored; computed })
                    else
                      try
                        let i_snap = decode_body contents ~pos:(ml + 4 + hlen) ~len:h.h_body_bytes in
                        Ok { i_header = h; i_snap }
                      with Short why -> Error (Truncated why)))

(* ------------------------------------------------------------------ *)
(* Restore                                                             *)

let mismatchf fmt = Printf.ksprintf (fun s -> Error (Machine_mismatch s)) fmt

(* Subtraction form, as in [Tagmem.restore_pages]: the sum
   [idx * page_bytes + length] could wrap for a huge [idx]. *)
let pages_fit ~store_bytes ~page_bytes pages =
  List.for_all
    (fun (idx, page) ->
      let len = String.length page in
      idx >= 0 && len <= store_bytes && idx <= (store_bytes - len) / page_bytes)
    pages

let restore m ~abi image =
  timed m_restores m_restore_s "snapshot.restore" @@ fun () ->
  let h = image.i_header in
  let cfg = Machine.config m in
  let snap = image.i_snap in
  let digest = machine_digest ~abi m in
  if h.h_abi <> abi then
    mismatchf "it was taken under ABI %s, this machine runs %s" h.h_abi abi
  else if h.h_revision <> revision_key cfg.revision then
    mismatchf "ISA revision %s vs this machine's %s" h.h_revision
      (revision_key cfg.revision)
  else if h.h_mem_size <> cfg.mem_size then
    mismatchf "memory size %d vs this machine's %d" h.h_mem_size cfg.mem_size
  else if h.h_data_base <> cfg.data_base then
    mismatchf "data base %Ld vs this machine's %Ld" h.h_data_base cfg.data_base
  else if h.h_stack_bytes <> cfg.stack_bytes then
    mismatchf "stack size %d vs this machine's %d" h.h_stack_bytes cfg.stack_bytes
  else if h.h_trapv <> cfg.trap_on_signed_overflow then
    mismatchf "overflow trapping %b vs this machine's %b" h.h_trapv
      cfg.trap_on_signed_overflow
  else if h.h_timing <> timing_fields cfg.timing then
    mismatchf "cache geometry/latency configuration differs"
  else if h.h_code_digest <> digest then
    mismatchf
      "code digest %s vs this program's %s — it snapshots a different program \
       (or a different compilation of it)"
      h.h_code_digest digest
  else if
    not
      (pages_fit ~store_bytes:cfg.mem_size ~page_bytes:Machine.Snap.page_bytes
         snap.Machine.Snap.s_data_pages
      && pages_fit
           ~store_bytes:((cfg.mem_size / 32 + 7) / 8)
           ~page_bytes:Machine.Snap.page_bytes snap.Machine.Snap.s_tag_pages)
  then mismatchf "memory pages fall outside this machine's memory"
  else
    (* Everything structural is validated above, so the mutation below
       cannot fail halfway; the backstop catch keeps a format bug from
       escaping as an exception. *)
    try
      Machine.restore m snap;
      Ok ()
    with Invalid_argument why -> Error (Machine_mismatch why)

(* ------------------------------------------------------------------ *)
(* Description (cheri-snap info)                                       *)

let describe i =
  let h = i.i_header in
  let s = i.i_snap in
  let page_count l = List.length l in
  let page_bytes l =
    List.fold_left (fun acc (_, p) -> acc + String.length p) 0 l
  in
  Printf.sprintf
    "format:      %s\n\
     abi:         %s (revision %s)\n\
     memory:      %d bytes, data base %Ld, stack %d bytes\n\
     code digest: %s\n\
     pc:          %d\n\
     cycles:      %d\n\
     instret:     %d\n\
     syscalls:    %d\n\
     output:      %d bytes\n\
     heap:        %Ld bytes live in %d blocks (%d allocs, %d frees)\n\
     data pages:  %d nonzero (%d bytes)\n\
     tag pages:   %d nonzero (%d bytes)\n\
     note:        %s"
    format_version h.h_abi h.h_revision h.h_mem_size h.h_data_base
    h.h_stack_bytes h.h_code_digest s.Machine.Snap.s_pc
    s.Machine.Snap.s_cycles s.Machine.Snap.s_instret
    s.Machine.Snap.s_syscalls
    (String.length s.Machine.Snap.s_output)
    s.Machine.Snap.s_heap_allocated
    (List.length s.Machine.Snap.s_allocated)
    s.Machine.Snap.s_allocs s.Machine.Snap.s_frees
    (page_count s.Machine.Snap.s_data_pages)
    (page_bytes s.Machine.Snap.s_data_pages)
    (page_count s.Machine.Snap.s_tag_pages)
    (page_bytes s.Machine.Snap.s_tag_pages)
    (if h.h_note = "" then "(none)" else h.h_note)
