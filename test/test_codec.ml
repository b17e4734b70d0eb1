module Image = Dr_state.Image
module Codec = Dr_state.Codec
module Arch = Dr_state.Arch
module Value = Dr_state.Value

let sample_image =
  Image.make ~source_module:"compute"
    ~records:
      [ { Image.location = 4; values = [ Value.Vint 4; Vint 3; Vfloat 0.75; Vint 0 ] };
        { Image.location = 3; values = [ Value.Vint 4; Vint 4; Vfloat 0.75; Vint 0 ] };
        { Image.location = 1; values = [ Value.Vint 4; Vfloat 0.75 ] } ]
    ~heap:
      [ (0, { Image.elem_ty = Tint; cells = [| Value.Vint 1; Vint 2 |] });
        (3, { Image.elem_ty = Tarr Tint; cells = [| Value.Varr 0; Vnull |] }) ]

let test_abstract_roundtrip () =
  let bytes = Codec.encode_abstract sample_image in
  match Codec.decode_abstract bytes with
  | Ok decoded -> Alcotest.check Support.image "identical" sample_image decoded
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_abstract_deterministic () =
  let a = Codec.encode_abstract sample_image in
  let b = Codec.encode_abstract sample_image in
  Alcotest.(check bytes) "stable encoding" a b

let test_native_roundtrip_per_arch () =
  List.iter
    (fun arch ->
      match Codec.Native.encode arch sample_image with
      | Error e -> Alcotest.failf "%s: encode failed: %s" arch.Arch.arch_name e
      | Ok bytes -> (
        match Codec.Native.decode arch bytes with
        | Ok decoded ->
          Alcotest.check Support.image arch.Arch.arch_name sample_image decoded
        | Error e -> Alcotest.failf "%s: decode failed: %s" arch.Arch.arch_name e))
    Arch.all

let test_native_formats_differ () =
  let le = Result.get_ok (Codec.Native.encode Arch.x86_64 sample_image) in
  let be = Result.get_ok (Codec.Native.encode Arch.m68k sample_image) in
  Alcotest.(check bool) "little- and big-endian bytes differ" true (le <> be);
  let b32 = Result.get_ok (Codec.Native.encode Arch.arm32 sample_image) in
  Alcotest.(check bool) "32-bit image is smaller" true
    (Bytes.length b32 < Bytes.length le)

let test_translate_across_archs () =
  List.iter
    (fun (src, dst) ->
      let native_src = Result.get_ok (Codec.Native.encode src sample_image) in
      match Codec.Native.translate ~src ~dst native_src with
      | Error e ->
        Alcotest.failf "%s->%s: %s" src.Arch.arch_name dst.Arch.arch_name e
      | Ok native_dst -> (
        match Codec.Native.decode dst native_dst with
        | Ok decoded ->
          Alcotest.check Support.image
            (Printf.sprintf "%s->%s" src.Arch.arch_name dst.Arch.arch_name)
            sample_image decoded
        | Error e -> Alcotest.failf "decode after translate: %s" e))
    [ (Arch.x86_64, Arch.sparc32);
      (Arch.sparc32, Arch.x86_64);
      (Arch.arm32, Arch.m68k);
      (Arch.m68k, Arch.arm32) ]

let test_word_overflow_detected () =
  let big =
    Image.make ~source_module:"t"
      ~records:[ { Image.location = 1; values = [ Value.Vint 0x7FFFFFFFFF ] } ]
      ~heap:[]
  in
  (match Codec.Native.encode Arch.sparc32 big with
  | Error e ->
    Alcotest.(check bool) "mentions 32-bit" true
      (let contains needle haystack =
         let n = String.length needle and h = String.length haystack in
         let rec go i =
           i + n <= h && (String.sub haystack i n = needle || go (i + 1))
         in
         n = 0 || go 0
       in
       contains "32-bit" e)
  | Ok _ -> Alcotest.fail "expected overflow error");
  match Codec.Native.encode Arch.x86_64 big with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "64-bit should fit: %s" e

let test_malformed_inputs () =
  let expect_error name bytes =
    match Codec.decode_abstract bytes with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected decode error" name
  in
  expect_error "empty" (Bytes.create 0);
  expect_error "bad magic" (Bytes.of_string "XXXXXXXXXXXXXXXX");
  let valid = Codec.encode_abstract sample_image in
  expect_error "truncated" (Bytes.sub valid 0 (Bytes.length valid - 3));
  let extended = Bytes.cat valid (Bytes.of_string "junk") in
  expect_error "trailing bytes" extended;
  let corrupted = Bytes.copy valid in
  (* flip a tag byte deep inside the payload *)
  Bytes.set corrupted (Bytes.length corrupted - 9) '\xEE';
  match Codec.decode_abstract corrupted with
  | Error _ -> ()
  | Ok decoded ->
    (* a flipped value byte may still decode; it must then differ *)
    Alcotest.(check bool) "differs if decodable" false
      (Image.equal sample_image decoded)

let test_unsupported_version () =
  (* a well-checksummed container whose version byte is neither 1 nor 2
     is refused by name, not parsed *)
  let v2 = Codec.encode_abstract sample_image in
  let payload = Bytes.sub v2 0 (Bytes.length v2 - 4) in
  Bytes.set payload 6 '\x03';
  let out = Bytes.cat payload (Bytes.create 4) in
  Bytes.set_int32_be out (Bytes.length payload)
    (Dr_state.Bin_util.crc32 payload);
  match Codec.decode_abstract out with
  | Error e ->
    Alcotest.(check string) "message" "unsupported image version 3" e
  | Ok _ -> Alcotest.fail "version 3 decoded"

let test_legacy_v1_decode () =
  (* a version-1 container is the version-2 one minus the version byte
     and the CRC trailer, under the old magic *)
  let v2 = Codec.encode_abstract sample_image in
  let body = Bytes.sub v2 7 (Bytes.length v2 - 7 - 4) in
  let v1 = Bytes.cat (Bytes.of_string "DRIMG1") body in
  match Codec.decode_abstract v1 with
  | Ok decoded -> Alcotest.check Support.image "v1 decodes" sample_image decoded
  | Error e -> Alcotest.failf "legacy decode: %s" e

let test_empty_image () =
  let empty = Image.empty ~source_module:"nil" in
  let bytes = Codec.encode_abstract empty in
  match Codec.decode_abstract bytes with
  | Ok decoded -> Alcotest.check Support.image "empty" empty decoded
  | Error e -> Alcotest.failf "empty image: %s" e

let test_image_push_pop () =
  let img = Image.empty ~source_module:"m" in
  let r1 = { Image.location = 1; values = [ Value.Vint 1 ] } in
  let r2 = { Image.location = 2; values = [ Value.Vint 2 ] } in
  let img = Image.push_record (Image.push_record img r1) r2 in
  Alcotest.(check int) "depth" 2 (Image.depth img);
  match Image.pop_record img with
  | Some (popped, rest) ->
    Alcotest.(check int) "LIFO pops last pushed" 2 popped.Image.location;
    (match Image.pop_record rest with
    | Some (popped2, rest2) ->
      Alcotest.(check int) "then first" 1 popped2.Image.location;
      Alcotest.(check bool) "empty after" true (Image.pop_record rest2 = None)
    | None -> Alcotest.fail "second pop")
  | None -> Alcotest.fail "first pop"

let test_gather_blocks_sharing_and_cycles () =
  let blocks =
    [ (0, { Image.elem_ty = Dr_lang.Ast.Tarr Tint; cells = [| Value.Varr 1; Varr 1 |] });
      (1, { Image.elem_ty = Dr_lang.Ast.Tarr Tint; cells = [| Value.Varr 0 |] });
      (2, { Image.elem_ty = Dr_lang.Ast.Tint; cells = [| Value.Vint 9 |] }) ]
  in
  let lookup id = List.assoc_opt id blocks in
  let gathered = Image.gather_blocks ~lookup [ Value.Varr 0 ] in
  Alcotest.(check (list int)) "cycle-safe, shared once, unreachable excluded"
    [ 0; 1 ] (List.map fst gathered);
  let via_ptr = Image.gather_blocks ~lookup [ Value.Vptr (2, 0) ] in
  Alcotest.(check (list int)) "pointers reach blocks" [ 2 ] (List.map fst via_ptr);
  let dangling = Image.gather_blocks ~lookup [ Value.Varr 99 ] in
  Alcotest.(check (list int)) "dangling ignored" [] (List.map fst dangling)

let test_byte_size_monotone () =
  let small = Image.empty ~source_module:"m" in
  let bigger =
    Image.push_record small { Image.location = 1; values = [ Value.Vstr "hello" ] }
  in
  Alcotest.(check bool) "adding a record grows the image" true
    (Image.byte_size bigger > Image.byte_size small)

(* ------------------------------------------- delta container (DRIMGD1) *)

let sample_delta =
  { Image.d_source_module = "compute";
    d_base_digest = Image.digest sample_image;
    d_record_count = 3;
    d_slots =
      [ (0, 1, Value.Vint 9); (1, 0, Value.Vstr "fresh"); (2, 1, Value.Vfloat 1.5) ];
    d_heap_new =
      [ (5, { Image.elem_ty = Dr_lang.Ast.Tint; cells = [| Value.Vint 7 |] }) ];
    d_heap_keep = [ 0; 3 ] }

let delta_equal (a : Image.delta) (b : Image.delta) =
  String.equal a.d_source_module b.d_source_module
  && Int64.equal a.d_base_digest b.d_base_digest
  && a.d_record_count = b.d_record_count
  && List.equal
       (fun (i1, j1, v1) (i2, j2, v2) -> i1 = i2 && j1 = j2 && Value.equal v1 v2)
       a.d_slots b.d_slots
  && List.equal
       (fun (i1, (b1 : Image.heap_block)) (i2, (b2 : Image.heap_block)) ->
         i1 = i2 && b1.elem_ty = b2.elem_ty
         && Array.to_list b1.cells = Array.to_list b2.cells)
       a.d_heap_new b.d_heap_new
  && List.equal Int.equal a.d_heap_keep b.d_heap_keep

let test_delta_roundtrip () =
  let bytes = Codec.encode_delta sample_delta in
  match Codec.decode_delta bytes with
  | Ok decoded ->
    Alcotest.(check bool) "delta round-trips" true (delta_equal sample_delta decoded)
  | Error e -> Alcotest.failf "delta decode: %s" e

let test_delta_deterministic () =
  Alcotest.(check bool) "byte-identical re-encode" true
    (Bytes.equal (Codec.encode_delta sample_delta) (Codec.encode_delta sample_delta))

let test_delta_corruption_detected () =
  (* every single-byte flip anywhere in the container must fail decode
     loudly — magic/version damage as a format error, anything else via
     the CRC trailer; none may mis-parse into a different delta *)
  let valid = Codec.encode_delta sample_delta in
  for i = 0 to Bytes.length valid - 1 do
    let corrupted = Bytes.copy valid in
    Bytes.set corrupted i (Char.chr (Char.code (Bytes.get corrupted i) lxor 0x41));
    match Codec.decode_delta corrupted with
    | Error _ -> ()
    | Ok decoded ->
      if not (delta_equal sample_delta decoded) then
        Alcotest.failf "flip at byte %d decoded into a different delta" i
      else Alcotest.failf "flip at byte %d went undetected" i
  done

let test_delta_truncation_detected () =
  (* a torn write at any prefix length must fail decode, never parse *)
  let valid = Codec.encode_delta sample_delta in
  for len = 0 to Bytes.length valid - 1 do
    match Codec.decode_delta (Bytes.sub valid 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes decoded" len
  done

let prop_abstract_roundtrip =
  Support.qcheck ~count:300 "abstract codec round-trips" Gen.image (fun img ->
      match Codec.decode_abstract (Codec.encode_abstract img) with
      | Ok decoded -> Image.equal img decoded
      | Error e -> QCheck2.Test.fail_reportf "decode error: %s" e)

let prop_cross_arch_roundtrip =
  Support.qcheck ~count:200 "32-bit-safe images survive any arch pair"
    Gen.image_32bit (fun img ->
      List.for_all
        (fun (src, dst) ->
          match Codec.Native.encode src img with
          | Error _ -> false
          | Ok bytes -> (
            match Codec.Native.translate ~src ~dst bytes with
            | Error _ -> false
            | Ok out -> (
              match Codec.Native.decode dst out with
              | Ok decoded -> Image.equal img decoded
              | Error _ -> false)))
        [ (Arch.x86_64, Arch.sparc32); (Arch.sparc32, Arch.arm32) ])

let () =
  Alcotest.run "codec"
    [ ( "abstract",
        [ Alcotest.test_case "roundtrip" `Quick test_abstract_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_abstract_deterministic;
          Alcotest.test_case "empty image" `Quick test_empty_image;
          Alcotest.test_case "unsupported version" `Quick
            test_unsupported_version;
          Alcotest.test_case "legacy v1 decode" `Quick test_legacy_v1_decode;
          Alcotest.test_case "malformed" `Quick test_malformed_inputs ] );
      ( "native",
        [ Alcotest.test_case "per-arch roundtrip" `Quick
            test_native_roundtrip_per_arch;
          Alcotest.test_case "formats differ" `Quick test_native_formats_differ;
          Alcotest.test_case "translate across archs" `Quick
            test_translate_across_archs;
          Alcotest.test_case "word overflow" `Quick test_word_overflow_detected ] );
      ( "delta",
        [ Alcotest.test_case "roundtrip" `Quick test_delta_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_delta_deterministic;
          Alcotest.test_case "bit-flip fuzz" `Quick test_delta_corruption_detected;
          Alcotest.test_case "truncation fuzz" `Quick
            test_delta_truncation_detected ] );
      ( "image",
        [ Alcotest.test_case "push/pop LIFO" `Quick test_image_push_pop;
          Alcotest.test_case "gather blocks" `Quick
            test_gather_blocks_sharing_and_cycles;
          Alcotest.test_case "byte size" `Quick test_byte_size_monotone ] );
      ("properties", [ prop_abstract_roundtrip; prop_cross_arch_roundtrip ]) ]
