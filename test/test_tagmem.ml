module Mem = Cheri_tagmem.Tagmem
module Cap = Cheri_core.Capability
module Perms = Cheri_core.Perms

let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)
let check_int = Alcotest.(check int)

let mem () = Mem.create ~size_bytes:4096 ()

let test_int_roundtrip () =
  let m = mem () in
  List.iter
    (fun (size, v) ->
      Mem.store_int_i64 m ~addr:128L ~size v;
      check_i64 (Printf.sprintf "size %d" size) v (Mem.load_int_i64 m ~addr:128L ~size))
    [ (1, 0xabL); (2, 0xbeefL); (4, 0xdeadbeefL); (8, 0x1122334455667788L) ]

let test_little_endian () =
  let m = mem () in
  Mem.store_int_i64 m ~addr:0L ~size:8 0x0102030405060708L;
  check_int "low byte first" 8 (Mem.load_byte_i64 m 0L);
  check_int "high byte last" 1 (Mem.load_byte_i64 m 7L)

let test_cap_roundtrip () =
  let m = mem () in
  let c = Cap.make ~base:0x40L ~length:0x20L ~perms:Perms.read_only in
  Mem.store_cap_i64 m ~addr:64L c;
  check_bool "tag set" true (Mem.tag_at_i64 m 64L);
  let c' = Mem.load_cap_i64 m ~addr:64L in
  check_bool "roundtrip" true (Cap.equal c c')

let test_data_store_clears_tag () =
  let m = mem () in
  let c = Cap.make ~base:0x40L ~length:0x20L ~perms:Perms.all in
  Mem.store_cap_i64 m ~addr:64L c;
  (* overwrite one byte in the middle of the capability *)
  Mem.store_byte_i64 m 80L 0xff;
  check_bool "tag cleared by data store" false (Mem.tag_at_i64 m 64L);
  let c' = Mem.load_cap_i64 m ~addr:64L in
  check_bool "loaded capability untagged" false c'.Cap.tag

let test_untagged_store_of_cap () =
  let m = mem () in
  let c = Cap.clear_tag (Cap.make ~base:1L ~length:2L ~perms:Perms.all) in
  Mem.store_cap_i64 m ~addr:96L c;
  check_bool "storing untagged cap leaves tag clear" false (Mem.tag_at_i64 m 96L)

let test_tag_granularity () =
  let m = mem () in
  let c = Cap.make ~base:0L ~length:8L ~perms:Perms.all in
  Mem.store_cap_i64 m ~addr:0L c;
  Mem.store_cap_i64 m ~addr:32L c;
  check_int "two tags" 2 (Mem.count_tags m);
  (* a write in the second granule must not disturb the first *)
  Mem.store_byte_i64 m 40L 1;
  check_bool "first granule keeps its tag" true (Mem.tag_at_i64 m 0L);
  check_bool "second granule lost its tag" false (Mem.tag_at_i64 m 32L);
  check_int "one tag left" 1 (Mem.count_tags m)

let test_wide_store_clears_both_granules () =
  let m = mem () in
  let c = Cap.make ~base:0L ~length:8L ~perms:Perms.all in
  Mem.store_cap_i64 m ~addr:0L c;
  Mem.store_cap_i64 m ~addr:32L c;
  (* an 8-byte store straddling the granule boundary clears both tags *)
  Mem.store_int_i64 m ~addr:28L ~size:8 0L;
  check_int "both tags cleared" 0 (Mem.count_tags m)

let test_bus_error () =
  let m = mem () in
  Alcotest.check_raises "load beyond end" (Mem.Bus_error 4096L) (fun () ->
      ignore (Mem.load_byte_i64 m 4096L));
  Alcotest.check_raises "straddling store" (Mem.Bus_error 4092L) (fun () ->
      Mem.store_int_i64 m ~addr:4092L ~size:8 0L)

let test_misaligned_cap () =
  let m = mem () in
  Alcotest.check_raises "misaligned cap load"
    (Invalid_argument "Tagmem.load_cap: address must be capability-aligned") (fun () ->
      ignore (Mem.load_cap_i64 m ~addr:8L))

let test_iter_tagged () =
  let m = mem () in
  let c = Cap.make ~base:0L ~length:8L ~perms:Perms.all in
  Mem.store_cap_i64 m ~addr:64L c;
  Mem.store_cap_i64 m ~addr:512L c;
  let seen = ref [] in
  Mem.iter_tagged m (fun a -> seen := a :: !seen);
  Alcotest.(check (list int64)) "tagged granule addresses" [ 64L; 512L ] (List.rev !seen)

let test_custom_granule () =
  let m = Mem.create ~granule:64 ~size_bytes:4096 () in
  let c = Cap.make ~base:0L ~length:8L ~perms:Perms.all in
  Mem.store_cap_i64 m ~addr:0L c;
  (* with 64-byte granules, a data write 40 bytes in still clears the tag *)
  Mem.store_byte_i64 m 40L 1;
  check_bool "coarse granule collateral clearing" false (Mem.tag_at_i64 m 0L)

(* -- collateral tag-clear edge cases -------------------------------------- *)

let test_zero_length_write_preserves_tag () =
  let m = mem () in
  Mem.store_cap_i64 m ~addr:64L (Cap.make ~base:0L ~length:8L ~perms:Perms.all);
  (* a zero-length store touches no granule, so the §4.2 rule must not fire *)
  Mem.store_bytes_i64 m ~addr:64L Bytes.empty;
  Mem.store_bytes_i64 m ~addr:80L Bytes.empty;
  Mem.store_bytes_i64 m ~addr:95L Bytes.empty;
  check_bool "zero-length writes leave the tag" true (Mem.tag_at_i64 m 64L);
  check_int "still exactly one tag" 1 (Mem.count_tags m)

let test_bytes_write_straddling_lines () =
  let m = mem () in
  let c = Cap.make ~base:0L ~length:8L ~perms:Perms.all in
  List.iter (fun a -> Mem.store_cap_i64 m ~addr:a c) [ 0L; 32L; 64L; 96L ];
  (* a 40-byte write at 40..79 straddles the 64-byte line boundary:
     lines 32 and 64 are touched, their neighbours are not *)
  Mem.store_bytes_i64 m ~addr:40L (Bytes.make 40 'x');
  check_bool "line before the write keeps its tag" true (Mem.tag_at_i64 m 0L);
  check_bool "first straddled line cleared" false (Mem.tag_at_i64 m 32L);
  check_bool "second straddled line cleared" false (Mem.tag_at_i64 m 64L);
  check_bool "line after the write keeps its tag" true (Mem.tag_at_i64 m 96L);
  check_int "two survivors" 2 (Mem.count_tags m)

let test_one_byte_each_side_of_line_boundary () =
  let m = mem () in
  let c = Cap.make ~base:0L ~length:8L ~perms:Perms.all in
  Mem.store_cap_i64 m ~addr:0L c;
  Mem.store_cap_i64 m ~addr:32L c;
  (* the last byte of line 0 clears only line 0 *)
  Mem.store_byte_i64 m 31L 1;
  check_bool "last byte of the line clears it" false (Mem.tag_at_i64 m 0L);
  check_bool "next line untouched" true (Mem.tag_at_i64 m 32L);
  Mem.store_cap_i64 m ~addr:0L c;
  (* the first byte of line 1 clears only line 1 *)
  Mem.store_byte_i64 m 32L 1;
  check_bool "first byte of the line clears it" false (Mem.tag_at_i64 m 32L);
  check_bool "previous line untouched" true (Mem.tag_at_i64 m 0L)

let test_last_line_of_address_space () =
  let m = mem () in
  let last = Int64.of_int (4096 - 32) in
  Mem.store_cap_i64 m ~addr:last (Cap.make ~base:0L ~length:8L ~perms:Perms.all);
  check_bool "tag on the last line" true (Mem.tag_at_i64 m 4095L);
  (* the very last byte of memory still triggers the integrity rule *)
  Mem.store_byte_i64 m 4095L 0xff;
  check_bool "write to the final byte clears it" false (Mem.tag_at_i64 m last);
  Mem.store_cap_i64 m ~addr:last (Cap.make ~base:0L ~length:8L ~perms:Perms.all);
  (* a store that would run off the end faults before mutating anything *)
  Alcotest.check_raises "store past the end is rejected" (Mem.Bus_error 4092L) (fun () ->
      Mem.store_int_i64 m ~addr:4092L ~size:8 0L);
  check_bool "rejected store cleared no tag" true (Mem.tag_at_i64 m last);
  check_i64 "rejected store wrote no bytes" 0L (Mem.load_int_i64 m ~addr:4092L ~size:4)

(* -- fault-injection hooks (below-architecture mutations) ------------------- *)

let test_poke_raw_preserves_tag () =
  let m = mem () in
  let c = Cap.make ~base:0x40L ~length:0x20L ~perms:Perms.all in
  Mem.store_cap_i64 m ~addr:64L c;
  Mem.poke_raw_i64 m 72L 0xff;
  check_bool "poke_raw bypasses the integrity rule" true (Mem.tag_at_i64 m 64L);
  let c' = Mem.load_cap_i64 m ~addr:64L in
  check_bool "corrupted capability still tagged" true c'.Cap.tag;
  check_bool "but its bits changed" false (Cap.equal c c')

let test_set_tag_at_forges () =
  let m = mem () in
  Mem.store_int_i64 m ~addr:64L ~size:8 0xdeadbeefL;
  check_bool "plain data is untagged" false (Mem.tag_at_i64 m 64L);
  Mem.set_tag_at_i64 m 70L;
  check_bool "forged tag on the containing line" true (Mem.tag_at_i64 m 64L);
  let c = Mem.load_cap_i64 m ~addr:64L in
  check_bool "forged bytes now load as a tagged capability" true c.Cap.tag

let prop_data_roundtrip =
  QCheck.Test.make ~name:"store_int/load_int roundtrip (any size/addr)" ~count:500
    QCheck.(triple (int_bound 4000) (int_range 0 3) int64)
    (fun (addr, szi, v) ->
      let size = [| 1; 2; 4; 8 |].(szi) in
      let addr = Int64.of_int (min addr (4096 - size)) in
      let m = mem () in
      Mem.store_int_i64 m ~addr ~size v;
      let expected = Cheri_util.Bits.zero_extend v ~width:(size * 8) in
      Mem.load_int_i64 m ~addr ~size = expected)

let prop_any_data_write_kills_overlapping_tag =
  QCheck.Test.make ~name:"any data write into a tagged granule clears the tag" ~count:500
    QCheck.(pair (int_bound 31) (int_range 0 3))
    (fun (off, szi) ->
      let size = [| 1; 2; 4; 8 |].(szi) in
      let off = min off (32 - size) in
      let m = mem () in
      Mem.store_cap_i64 m ~addr:0L (Cap.make ~base:0L ~length:1L ~perms:Perms.all);
      Mem.store_int_i64 m ~addr:(Int64.of_int off) ~size 0L;
      not (Mem.tag_at_i64 m 0L))

(* -- snapshot hooks: dirty-chunk tracking ----------------------------------- *)

(* The naive reference the dirty-tracked [snapshot_pages] must agree
   with: read the whole store back through the public API and keep
   every nonzero page. The tag store is rebuilt bit by bit from
   [tag_at], in the packed layout the snapshot format carries. *)
let nonzero_pages buf ~page_bytes =
  let n = Bytes.length buf in
  List.filter_map
    (fun idx ->
      let off = idx * page_bytes in
      let page = Bytes.sub_string buf off (min page_bytes (n - off)) in
      if String.exists (fun c -> c <> '\000') page then Some (idx, page) else None)
    (List.init ((n + page_bytes - 1) / page_bytes) Fun.id)

let full_scan m ~page_bytes =
  let n = Mem.size m and g = Mem.granule m in
  let tags = Bytes.make ((n / g + 7) / 8) '\000' in
  for gi = 0 to (n / g) - 1 do
    if Mem.tag_at m (gi * g) then
      Bytes.set tags (gi / 8)
        (Char.chr (Char.code (Bytes.get tags (gi / 8)) lor (1 lsl (gi mod 8))))
  done;
  (nonzero_pages (Mem.load_bytes m 0 ~len:n) ~page_bytes, nonzero_pages tags ~page_bytes)

(* One of every writer, including the fault-injection hooks and
   [clear_tag_at]; [Zero_cap] stores a tagged capability whose 32 data
   bytes are all zero, which only the tag plane can carry. *)
type op =
  | Byte of int * int
  | Int of int * int * int64
  | Word of int * int64
  | Blob of int * string
  | Capability of int * int64
  | Zero_cap of int
  | Fields of int * int64 * int
  | Poke of int * int
  | Set_tag of int
  | Clear_tag of int

let show_op = function
  | Byte (a, v) -> Printf.sprintf "Byte(%d,%d)" a v
  | Int (a, s, v) -> Printf.sprintf "Int(%d,%d,%Ld)" a s v
  | Word (a, v) -> Printf.sprintf "Word(%d,%Ld)" a v
  | Blob (a, s) -> Printf.sprintf "Blob(%d,%d bytes)" a (String.length s)
  | Capability (a, v) -> Printf.sprintf "Capability(%d,%Ld)" a v
  | Zero_cap a -> Printf.sprintf "Zero_cap(%d)" a
  | Fields (a, v, meta) -> Printf.sprintf "Fields(%d,%Ld,%#x)" a v meta
  | Poke (a, v) -> Printf.sprintf "Poke(%d,%d)" a v
  | Set_tag a -> Printf.sprintf "Set_tag(%d)" a
  | Clear_tag a -> Printf.sprintf "Clear_tag(%d)" a

(* Addresses are unclamped offsets; [apply] folds them into the store,
   half of them next to a 4 KiB chunk boundary so multi-byte writes
   straddle one. *)
let gen_op =
  let open QCheck.Gen in
  let addr =
    oneof [ int_bound 0xfffff; map2 (fun k d -> (k * 4096) + d) (int_bound 8) (int_range (-40) 8) ]
  in
  frequency
    [
      (2, map2 (fun a v -> Byte (a, v)) addr (int_bound 255));
      (2, map3 (fun a s v -> Int (a, s, v)) addr (int_bound 3) ui64);
      (2, map2 (fun a v -> Word (a, v)) addr ui64);
      (2, map2 (fun a s -> Blob (a, s)) addr (string_size ~gen:char (int_range 1 5000)));
      (2, map2 (fun a v -> Capability (a, v)) addr ui64);
      (1, map (fun a -> Zero_cap a) addr);
      (1, map3 (fun a v meta -> Fields (a, v, meta)) addr ui64 (int_bound 0x3ff));
      (1, map2 (fun a v -> Poke (a, v)) addr (int_bound 255));
      (1, map (fun a -> Set_tag a) addr);
      (2, map (fun a -> Clear_tag a) addr);
    ]

let apply m op =
  let n = Mem.size m in
  let at a width = (abs a mod (n - width + 1)) in
  let cap_at a = at a 32 land lnot 31 in
  match op with
  | Byte (a, v) -> Mem.store_byte m (at a 1) v
  | Int (a, s, v) ->
      let size = [| 1; 2; 4; 8 |].(s) in
      Mem.store_int m (at a size) ~size v
  | Word (a, v) -> Mem.store_word m (at a 8) v
  | Blob (a, s) ->
      let s = if String.length s > n then String.sub s 0 n else s in
      Mem.store_bytes m (at a (String.length s)) (Bytes.of_string s)
  | Capability (a, v) -> Mem.store_cap m (cap_at a) (Cap.make ~base:v ~length:64L ~perms:Perms.all)
  | Zero_cap a ->
      Mem.store_cap m (cap_at a)
        (Cap.of_fields_unchecked ~tag:true ~base:0L ~length:0L ~offset:0L
           ~perms:(Perms.of_bits_int 0) ~sealed:false ~otype:0L)
  | Fields (a, v, meta) ->
      let lane () =
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 v;
        b
      in
      Mem.store_cap_fields m (cap_at a) ~base:(lane ()) ~len:(lane ()) ~off:(lane ()) ~pos:0
        ~meta ~otype:0
  | Poke (a, v) -> Mem.poke_raw m (at a 1) v
  | Set_tag a -> Mem.set_tag_at m (at a 1)
  | Clear_tag a -> Mem.clear_tag_at m (at a 1)

(* geometry: store size (odd sizes leave a short last page), granule,
   and the two page sizes — none need match the 4 KiB chunk *)
let gen_case =
  let open QCheck.Gen in
  let ops = list_size (int_range 0 30) gen_op in
  tup4
    (pair (oneofl [ (5 * 4096, 32); ((4 * 4096) + 320, 64); ((3 * 4096) + 96, 32) ])
       (pair (oneofl [ 8; 64; 1000; 4096; 8192 ]) (oneofl [ 8; 512; 4096 ])))
    ops ops ops

let print_case (((size, granule), (pb1, pb2)), a, b, c) =
  let ops l = String.concat "; " (List.map show_op l) in
  Printf.sprintf "size=%d granule=%d pages=%d/%d\nA: %s\nB: %s\nC: %s" size granule pb1 pb2
    (ops a) (ops b) (ops c)

let prop_dirty_tracking_matches_full_scan =
  QCheck.Test.make ~name:"dirty-tracked snapshot_pages equals a full scan" ~count:200
    (QCheck.make ~print:print_case gen_case)
    (fun (((size, granule), (pb1, pb2)), a, b, c) ->
      let fresh () = Mem.create ~granule ~size_bytes:size () in
      let agrees m page_bytes = Mem.snapshot_pages m ~page_bytes = full_scan m ~page_bytes in
      let m1 = fresh () in
      List.iter (apply m1) a;
      let data, tags = Mem.snapshot_pages m1 ~page_bytes:pb1 in
      (* restore into a memory dirtied elsewhere: no stale byte or tag
         of [b] may survive *)
      let m2 = fresh () in
      List.iter (apply m2) b;
      Mem.restore_pages m2 ~page_bytes:pb1 ~data ~tags;
      let restored = agrees m1 pb1 && full_scan m2 ~page_bytes:pb1 = (data, tags) in
      let rescanned = agrees m2 pb1 && agrees m2 pb2 in
      (* writes after the restore are tracked as before *)
      List.iter (apply m2) c;
      restored && rescanned && agrees m2 pb1 && agrees m2 pb2)

let test_restore_validates_before_mutating () =
  let m = Mem.create ~size_bytes:(4 * 4096) () in
  Mem.store_word m 100 0x1122334455667788L;
  Mem.store_cap m 4096 (Cap.make ~base:0x40L ~length:0x20L ~perms:Perms.all);
  let before = full_scan m ~page_bytes:4096 in
  let good = (0, String.make 4096 'x') in
  List.iter
    (fun (what, data, tags) ->
      (match Mem.restore_pages m ~page_bytes:4096 ~data ~tags with
      | () -> Alcotest.failf "%s: restore accepted a bad page list" what
      | exception Invalid_argument _ -> ());
      check_bool (what ^ ": memory unchanged") true (full_scan m ~page_bytes:4096 = before))
    [
      ("data page past the end", [ good; (4, "y") ], []);
      ("negative data index", [ good; (-1, "y") ], []);
      ("data page overrunning the end", [ good; (3, String.make 4097 'y') ], []);
      ("tag page past the end", [ good ], [ (1, "\001") ]);
      ("tag page overrunning the end", [ good ], [ (0, String.make 65 '\001') ]);
    ]

let test_snapshot_scans_only_touched_pages () =
  let m = Mem.create ~size_bytes:(1 lsl 25) () in
  Mem.store_word m 0x10000 42L;
  Mem.store_cap m ((1 lsl 25) - 64) (Cap.make ~base:0L ~length:8L ~perms:Perms.all);
  let before = Mem.pages_scanned m in
  let data, tags = Mem.snapshot_pages m ~page_bytes:4096 in
  check_int "two nonzero data pages" 2 (List.length data);
  check_int "one nonzero tag page" 1 (List.length tags);
  (* the two touched data pages, plus the two tag pages covering them *)
  check_int "pages scanned" 4 (Mem.pages_scanned m - before)

(* The capability spill/fill paths run once per CLC/CSC retired, so a
   round trip through the register-file entry points must not allocate:
   10,000 calls stay under one minor word per call. *)
let test_cap_fields_allocation () =
  let m = mem () in
  let lane () = Bytes.make 32 '\000' in
  let base = lane () and len = lane () and off = lane () and otype = lane () in
  Mem.store_cap_i64 m ~addr:64L (Cap.make ~base:0x40L ~length:0x20L ~perms:Perms.read_only);
  let calls = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls / 2 do
    let meta = Mem.load_cap_fields m 64 ~base ~len ~off ~otype ~pos:8 in
    Mem.store_cap_fields m 128 ~base ~len ~off ~pos:8 ~meta
      ~otype:(Int64.to_int (Bytes.get_int64_le otype 8))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
  if per_call >= 1.0 then Alcotest.failf "%.2f minor words per call (budget 1)" per_call;
  check_bool "the copy kept its tag" true (Mem.tag_at m 128);
  check_i64 "the copy kept its base" 0x40L (Mem.load_int m 128 ~size:8)

let suite =
  [
    Alcotest.test_case "int roundtrip" `Quick test_int_roundtrip;
    Alcotest.test_case "little endian layout" `Quick test_little_endian;
    Alcotest.test_case "capability roundtrip" `Quick test_cap_roundtrip;
    Alcotest.test_case "data store clears tag" `Quick test_data_store_clears_tag;
    Alcotest.test_case "untagged capability store" `Quick test_untagged_store_of_cap;
    Alcotest.test_case "tag granularity" `Quick test_tag_granularity;
    Alcotest.test_case "straddling store clears both" `Quick test_wide_store_clears_both_granules;
    Alcotest.test_case "bus errors" `Quick test_bus_error;
    Alcotest.test_case "misaligned capability access" `Quick test_misaligned_cap;
    Alcotest.test_case "iter_tagged" `Quick test_iter_tagged;
    Alcotest.test_case "custom granule" `Quick test_custom_granule;
    Alcotest.test_case "zero-length write preserves tag" `Quick
      test_zero_length_write_preserves_tag;
    Alcotest.test_case "bytes write straddling lines" `Quick test_bytes_write_straddling_lines;
    Alcotest.test_case "byte each side of line boundary" `Quick
      test_one_byte_each_side_of_line_boundary;
    Alcotest.test_case "last line of address space" `Quick test_last_line_of_address_space;
    Alcotest.test_case "poke_raw preserves tag" `Quick test_poke_raw_preserves_tag;
    Alcotest.test_case "set_tag_at forges a tag" `Quick test_set_tag_at_forges;
    QCheck_alcotest.to_alcotest prop_data_roundtrip;
    QCheck_alcotest.to_alcotest prop_any_data_write_kills_overlapping_tag;
    Alcotest.test_case "restore_pages validates before mutating" `Quick
      test_restore_validates_before_mutating;
    Alcotest.test_case "snapshot scans only touched pages" `Quick
      test_snapshot_scans_only_touched_pages;
    QCheck_alcotest.to_alcotest prop_dirty_tracking_matches_full_scan;
    Alcotest.test_case "cap field transfers allocate nothing" `Quick test_cap_fields_allocation;
  ]
