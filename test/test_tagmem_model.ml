(* Tagged memory against an independent reference, plus the resource
   and allocation bounds of its mapped backing.

   The reference is the naive reading of the tagmem interface: a plain
   [Bytes] store and one [bool] per granule. Random operation sequences
   run on both, and every result, every bus error and the final state
   must agree. *)

module Mem = Cheri_tagmem.Tagmem
module Cap = Cheri_core.Capability
module Perms = Cheri_core.Perms

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -- the reference model ------------------------------------------------- *)

type model = { bytes : Bytes.t; tags : bool array; g : int }

let model_create ~granule n =
  { bytes = Bytes.make n '\000'; tags = Array.make (n / granule) false; g = granule }

exception Bus

let need md a len = if a < 0 || len < 0 || a > Bytes.length md.bytes - len then raise Bus

(* a data-path write: the bytes land and every touched granule loses its
   tag; a zero-length write touches no granule *)
let write md a s =
  let len = String.length s in
  need md a len;
  Bytes.blit_string s 0 md.bytes a len;
  if len > 0 then
    for gi = a / md.g to (a + len - 1) / md.g do
      md.tags.(gi) <- false
    done

let le v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Bytes.to_string b

let word md a = Bytes.get_int64_le md.bytes a

(* bits 0-47 of the spill's meta word *)
let meta md a =
  let r = ref 0 in
  for i = 5 downto 0 do
    r := (!r lsl 8) lor Char.code (Bytes.get md.bytes (a + 24 + i))
  done;
  !r

type op =
  | St_byte of int * int
  | St_int of int * int * int64
  | St_word of int * int64
  | St_bytes of int * string
  | St_cap of int * Cap.t
  | St_fields of int * int64 * int * int  (* addr, payload word, meta, otype *)
  | Poke of int * int
  | Set_tag of int
  | Clear_tag of int
  | Ld_byte of int
  | Ld_int of int * int
  | Ld_word of int
  | Ld_bytes of int * int
  | Ld_cap of int
  | Ld_fields of int
  | Tag of int
  | Roundtrip  (* snapshot_pages, then restore_pages into a fresh memory *)

let show = function
  | St_byte (a, v) -> Printf.sprintf "St_byte(%d,%d)" a v
  | St_int (a, s, v) -> Printf.sprintf "St_int(%d,%d,%Ld)" a s v
  | St_word (a, v) -> Printf.sprintf "St_word(%d,%Ld)" a v
  | St_bytes (a, s) -> Printf.sprintf "St_bytes(%d,%d bytes)" a (String.length s)
  | St_cap (a, c) -> Format.asprintf "St_cap(%d,%a)" a Cap.pp c
  | St_fields (a, v, m, o) -> Printf.sprintf "St_fields(%d,%Ld,%#x,%d)" a v m o
  | Poke (a, v) -> Printf.sprintf "Poke(%d,%d)" a v
  | Set_tag a -> Printf.sprintf "Set_tag(%d)" a
  | Clear_tag a -> Printf.sprintf "Clear_tag(%d)" a
  | Ld_byte a -> Printf.sprintf "Ld_byte(%d)" a
  | Ld_int (a, s) -> Printf.sprintf "Ld_int(%d,%d)" a s
  | Ld_word a -> Printf.sprintf "Ld_word(%d)" a
  | Ld_bytes (a, n) -> Printf.sprintf "Ld_bytes(%d,%d)" a n
  | Ld_cap a -> Printf.sprintf "Ld_cap(%d)" a
  | Ld_fields a -> Printf.sprintf "Ld_fields(%d)" a
  | Tag a -> Printf.sprintf "Tag(%d)" a
  | Roundtrip -> "Roundtrip"

type result =
  | Unit
  | Int of int
  | I64 of int64
  | Str of string
  | Capability of Cap.t
  | Fields of string * int
  | Bool of bool
  | Bus_error

let model_step md = function
  | St_byte (a, v) -> write md a (String.make 1 (Char.chr (v land 0xff))); Unit
  | St_int (a, s, v) -> need md a s; write md a (String.sub (le v) 0 s); Unit
  | St_word (a, v) -> write md a (le v); Unit
  | St_bytes (a, s) -> write md a s; Unit
  | St_cap (a, c) ->
      write md a (le c.Cap.base ^ le c.Cap.length ^ le c.Cap.offset ^ le (Cap.meta_word c));
      md.tags.(a / md.g) <- c.Cap.tag;
      Unit
  | St_fields (a, v, m, o) ->
      let spill = Int64.of_int ((m land 0x1ff) lor ((o land 0xffffffff) lsl 16)) in
      write md a (le v ^ le v ^ le v ^ le spill);
      md.tags.(a / md.g) <- m land 0x200 <> 0;
      Unit
  | Poke (a, v) ->
      need md a 1;
      Bytes.set md.bytes a (Char.chr (v land 0xff));
      Unit
  | Set_tag a -> need md a 1; md.tags.(a / md.g) <- true; Unit
  | Clear_tag a -> need md a 1; md.tags.(a / md.g) <- false; Unit
  | Ld_byte a -> need md a 1; Int (Char.code (Bytes.get md.bytes a))
  | Ld_int (a, s) ->
      need md a s;
      let v = ref 0L in
      for i = s - 1 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get md.bytes (a + i))))
      done;
      I64 !v
  | Ld_word a -> need md a 8; I64 (word md a)
  | Ld_bytes (a, n) -> need md a n; Str (Bytes.sub_string md.bytes a n)
  | Ld_cap a ->
      need md a 32;
      Capability
        (Cap.of_raw_words ~tag:md.tags.(a / md.g) ~base:(word md a) ~length:(word md (a + 8))
           ~offset:(word md (a + 16)) ~meta:(meta md a))
  | Ld_fields a ->
      need md a 32;
      let m = meta md a in
      Fields
        ( le (word md a) ^ le (word md (a + 8)) ^ le (word md (a + 16))
          ^ le (Int64.of_int ((m lsr 16) land 0xffffffff)),
          (m land 0x1ff) lor if md.tags.(a / md.g) then 0x200 else 0 )
  | Tag a -> need md a 1; Bool md.tags.(a / md.g)
  | Roundtrip -> Unit

let lane v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  b

(* [m] is a ref: a round trip swaps in the restored memory *)
let real_step m = function
  | St_byte (a, v) -> Mem.store_byte !m a v; Unit
  | St_int (a, s, v) -> Mem.store_int !m a ~size:s v; Unit
  | St_word (a, v) -> Mem.store_word !m a v; Unit
  | St_bytes (a, s) -> Mem.store_bytes !m a (Bytes.of_string s); Unit
  | St_cap (a, c) -> Mem.store_cap !m a c; Unit
  | St_fields (a, v, meta, otype) ->
      Mem.store_cap_fields !m a ~base:(lane v) ~len:(lane v) ~off:(lane v) ~pos:0 ~meta ~otype;
      Unit
  | Poke (a, v) -> Mem.poke_raw !m a v; Unit
  | Set_tag a -> Mem.set_tag_at !m a; Unit
  | Clear_tag a -> Mem.clear_tag_at !m a; Unit
  | Ld_byte a -> Int (Mem.load_byte !m a)
  | Ld_int (a, s) -> I64 (Mem.load_int !m a ~size:s)
  | Ld_word a -> I64 (Mem.load_word !m a)
  | Ld_bytes (a, n) -> Str (Bytes.to_string (Mem.load_bytes !m a ~len:n))
  | Ld_cap a -> Capability (Mem.load_cap !m a)
  | Ld_fields a ->
      let base = lane 0L and len = lane 0L and off = lane 0L and otype = lane 0L in
      let packed = Mem.load_cap_fields !m a ~base ~len ~off ~otype ~pos:0 in
      Fields (Bytes.(to_string (concat empty [ base; len; off; otype ])), packed)
  | Tag a -> Bool (Mem.tag_at !m a)
  | Roundtrip ->
      let page_bytes = 4096 in
      let data, tags = Mem.snapshot_pages !m ~page_bytes in
      (* the streaming pair must describe the same pages *)
      let scanned, tags' = Mem.scan_pages !m ~page_bytes in
      let buf = Bytes.create (page_bytes + 16) in
      let streamed =
        List.map
          (fun (idx, len) ->
            Mem.blit_data_page !m ~page_bytes idx buf 16;
            (idx, Bytes.sub_string buf 16 len))
          scanned
      in
      if streamed <> data || tags' <> tags then failwith "scan_pages/blit_data_page disagree";
      let fresh = Mem.create ~granule:(Mem.granule !m) ~size_bytes:(Mem.size !m) () in
      Mem.restore_pages fresh ~page_bytes ~data ~tags;
      m := fresh;
      Unit

let run_real m op = try real_step m op with Mem.Bus_error _ -> Bus_error
let run_model md op = try model_step md op with Bus -> Bus_error

let same_state m md =
  let n = Mem.size m in
  Bytes.equal (Mem.load_bytes m 0 ~len:n) md.bytes
  && Array.for_all Fun.id (Array.mapi (fun gi t -> Mem.tag_at m (gi * md.g) = t) md.tags)

(* Addresses lean on the edges: next to a 4 KiB chunk boundary, inside
   (or just past) the last 32 bytes of the store, and a few negative;
   the rest are uniform. Capability addresses are rounded down to the
   capability width, so they stay aligned. *)
let gen_addr n =
  let open QCheck.Gen in
  frequency
    [
      (3, int_bound (n - 1));
      (3, map2 (fun k d -> (k * 4096) + d) (int_bound (n / 4096)) (int_range (-40) 8));
      (3, map (fun d -> n - 32 + d) (int_range (-8) 40));
      (1, int_range (-16) (-1));
    ]

let gen_cap =
  let open QCheck.Gen in
  map3
    (fun (tag, sealed) (base, length, offset) (perms, otype) ->
      Cap.of_fields_unchecked ~tag ~base ~length ~offset ~perms:(Perms.of_bits_int perms) ~sealed
        ~otype)
    (pair bool bool) (triple ui64 ui64 ui64)
    (pair (int_bound 0xff) (map Int64.of_int (int_bound 0xffffffff)))

let gen_op n =
  let open QCheck.Gen in
  let a = gen_addr n in
  let ca = map (fun x -> x land lnot 31) a in
  let size = oneofl [ 1; 2; 4; 8 ] in
  frequency
    [
      (2, map2 (fun a v -> St_byte (a, v)) a (int_bound 255));
      (2, map3 (fun a s v -> St_int (a, s, v)) a size ui64);
      (2, map2 (fun a v -> St_word (a, v)) a ui64);
      (1, map2 (fun a s -> St_bytes (a, s)) a (string_size ~gen:char (int_range 0 5000)));
      (3, map2 (fun a c -> St_cap (a, c)) ca gen_cap);
      (2, map3 (fun (a, v) m o -> St_fields (a, v, m, o)) (pair ca ui64) (int_bound 0x3ff) nat);
      (1, map2 (fun a v -> Poke (a, v)) a (int_bound 255));
      (1, map (fun a -> Set_tag a) a);
      (1, map (fun a -> Clear_tag a) a);
      (2, map (fun a -> Ld_byte a) a);
      (2, map2 (fun a s -> Ld_int (a, s)) a size);
      (2, map (fun a -> Ld_word a) a);
      (1, map2 (fun a l -> Ld_bytes (a, l)) a (int_range 0 5000));
      (3, map (fun a -> Ld_cap a) ca);
      (2, map (fun a -> Ld_fields a) ca);
      (2, map (fun a -> Tag a) a);
      (1, return Roundtrip);
    ]

(* odd sizes leave a short last page and a partial last chunk *)
let gen_case =
  let open QCheck.Gen in
  pair (oneofl [ 4 * 4096; (3 * 4096) + 192 ]) (oneofl [ 32; 64 ]) >>= fun (n, granule) ->
  map (fun ops -> ((n, granule), ops)) (list_size (int_range 1 60) (gen_op n))

let print_case ((n, granule), ops) =
  Printf.sprintf "size=%d granule=%d\n%s" n granule (String.concat "; " (List.map show ops))

let prop_matches_reference =
  QCheck.Test.make ~name:"tagmem agrees with a Bytes + bool-array reference" ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun ((n, granule), ops) ->
      let m = ref (Mem.create ~granule ~size_bytes:n ()) in
      let md = model_create ~granule n in
      List.for_all
        (fun op ->
          let r = run_real m op and r' = run_model md op in
          r = r' || QCheck.Test.fail_reportf "%s: results differ" (show op))
        ops
      && same_state !m md)

(* -- bound checks that cannot wrap ---------------------------------------- *)

(* [idx * page_bytes] wraps negative for this index; the page must be
   refused before any chunk is zeroed. *)
let test_restore_refuses_wrapping_index () =
  let m = Mem.create ~size_bytes:(64 * 1024) () in
  Mem.store_word m 8192 0x0102030405060708L;
  (match
     Mem.restore_pages m ~page_bytes:4096 ~data:[ (1 lsl 50, String.make 4096 'x') ] ~tags:[]
   with
  | () -> Alcotest.fail "restore accepted a page at index 2^50"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "structured refusal" "Tagmem.restore_pages: page outside the store" msg);
  Alcotest.(check int64) "memory unchanged" 0x0102030405060708L (Mem.load_word m 8192)

(* [a + len] wraps negative for a near-[max_int] length *)
let test_huge_length_is_a_bus_error () =
  let m = Mem.create ~size_bytes:4096 () in
  Alcotest.check_raises "load_bytes" (Mem.Bus_error 8L) (fun () ->
      ignore (Mem.load_bytes m 8 ~len:(max_int - 4)))

(* -- resources and allocation of the mapped backing ------------------------ *)

(* [Gc.full_major] first: a domain that has exited leaves its uncounted
   major words to be adopted by the next major slice, which would bill
   earlier tests' pools to [f]. *)
let allocated_words f =
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let r = f () in
  (r, (Gc.allocated_bytes () -. a0) /. 8.)

(* The data store lives outside the OCaml heap: a 32 MiB memory costs
   its tag store and dirty bitmap (136 KiB), not 32 MiB of zeroes. *)
let test_create_is_lazy () =
  let m, words = allocated_words (fun () -> Mem.create ~size_bytes:(32 lsl 20) ()) in
  check_bool
    (Printf.sprintf "%.0f bytes of OCaml heap for a 32 MiB memory, at most 1 MiB" (words *. 8.))
    true
    (words *. 8. <= float_of_int (1 lsl 20));
  Mem.store_word m ((32 lsl 20) - 8) 7L;
  Alcotest.(check int64) "the last word is usable" 7L (Mem.load_word m ((32 lsl 20) - 8))

let line_count path =
  In_channel.with_open_text path (fun ic ->
      List.length (String.split_on_char '\n' (In_channel.input_all ic)))

(* Each memory is a mapping the GC unmaps; the descriptor it was mapped
   from is closed at once. Thousands of dropped memories must leave no
   descriptor behind and keep the mapping count far below the kernel's
   limit (vm.max_map_count, 65530 by default). *)
let test_create_drop_leaks_nothing () =
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let fds0 = fds () in
  let peak = ref 0 in
  for i = 1 to 5_000 do
    let m = Mem.create ~size_bytes:(32 lsl 20) () in
    Mem.store_word m (i * 4096 mod (32 lsl 20)) 1L;
    if i mod 50 = 0 then peak := max !peak (line_count "/proc/self/maps")
  done;
  check_int "open descriptors" fds0 (fds ());
  check_bool (Printf.sprintf "peak of %d mappings, under 1000" !peak) true (!peak < 1000)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "restore_pages refuses a wrapping page index" `Quick
      test_restore_refuses_wrapping_index;
    Alcotest.test_case "a near-max_int length is a bus error" `Quick
      test_huge_length_is_a_bus_error;
    Alcotest.test_case "create allocates no data store on the heap" `Quick test_create_is_lazy;
    Alcotest.test_case "5000 dropped memories leak no fd or mapping" `Quick
      test_create_drop_leaks_nothing;
  ]
