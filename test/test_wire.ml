(* Tests for the external representation: buffers and codec
   combinators (Figure 7.1's externalization/internalization). *)

open Circus_wire

let roundtrip codec v = Codec.decode codec (Codec.encode codec v) = v

let test_buf_primitives () =
  let w = Buf.writer () in
  Buf.write_u8 w 0xab;
  Buf.write_u16 w 0xcdef;
  Buf.write_u32 w 0x12345678l;
  Buf.write_u64 w 0x1122334455667788L;
  Buf.write_string w "hi";
  let r = Buf.reader (Buf.contents w) in
  Alcotest.(check int) "u8" 0xab (Buf.read_u8 r);
  Alcotest.(check int) "u16" 0xcdef (Buf.read_u16 r);
  Alcotest.(check int32) "u32" 0x12345678l (Buf.read_u32 r);
  Alcotest.(check int64) "u64" 0x1122334455667788L (Buf.read_u64 r);
  Alcotest.(check string) "string" "hi" (Buf.read_string r 2);
  Alcotest.(check int) "drained" 0 (Buf.remaining r)

let test_buf_big_endian () =
  let w = Buf.writer () in
  Buf.write_u16 w 0x0102;
  let b = Buf.contents w in
  Alcotest.(check int) "msb first" 1 (Char.code (Bytes.get b 0));
  Alcotest.(check int) "lsb second" 2 (Char.code (Bytes.get b 1))

let test_buf_underflow () =
  let r = Buf.reader (Bytes.create 3) in
  ignore (Buf.read_u16 r);
  Alcotest.check_raises "underflow" Buf.Underflow (fun () -> ignore (Buf.read_u16 r))

(* The parallel engine encodes on several domains at once, so the
   scratch writer behind [with_writer] must not be shared between
   them: each domain fills its writer byte by byte with its own
   character and must get back exactly that. *)
let test_with_writer_per_domain () =
  let encode_many c =
    let ok = ref true in
    for _ = 1 to 20_000 do
      let b =
        Buf.with_writer
          (fun w c ->
            for _ = 1 to 48 do
              Buf.write_u8 w (Char.code c)
            done)
          c
      in
      if not (Bytes.equal b (Bytes.make 48 c)) then ok := false
    done;
    !ok
  in
  let others = List.map (fun c -> Domain.spawn (fun () -> encode_many c)) [ 'b'; 'c' ] in
  let mine = encode_many 'a' in
  let theirs = List.map Domain.join others in
  Alcotest.(check (list bool)) "every encode intact" [ true; true; true ] (mine :: theirs)

let test_decode_rejects_trailing_garbage () =
  let encoded = Codec.encode Codec.uint16 7 in
  let padded = Bytes.cat encoded (Bytes.create 1) in
  Alcotest.(check bool) "raises" true
    (try ignore (Codec.decode Codec.uint16 padded); false with Codec.Decode_error _ -> true)

let test_decode_rejects_truncation () =
  Alcotest.(check bool) "raises" true
    (try ignore (Codec.decode Codec.int64 (Bytes.create 3)); false
     with Codec.Decode_error _ -> true)

let test_string_padding () =
  (* Courier pads strings to a 16-bit boundary. *)
  let enc s = Bytes.length (Codec.encode Codec.string s) in
  Alcotest.(check int) "odd length padded" (2 + 3 + 1) (enc "abc");
  Alcotest.(check int) "even length unpadded" (2 + 4) (enc "abcd");
  Alcotest.(check bool) "odd roundtrip" true (roundtrip Codec.string "abc")

let test_enum () =
  let c = Codec.enum [ ("red", 0); ("green", 7) ] in
  Alcotest.(check bool) "roundtrip" true (roundtrip c "green");
  Alcotest.(check bool) "undeclared name" true
    (try ignore (Codec.encode c "mauve"); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "undeclared value" true
    (try ignore (Codec.decode c (Codec.encode Codec.uint16 3)); false
     with Codec.Decode_error _ -> true)

let test_fix_recursive () =
  (* A cons-list codec via the fixpoint combinator. *)
  let c =
    Codec.fix (fun self ->
        Codec.map
          (function None -> [] | Some (x, rest) -> x :: rest)
          (function [] -> None | x :: rest -> Some (x, rest))
          (Codec.option (Codec.pair Codec.int self)))
  in
  Alcotest.(check bool) "roundtrip" true (roundtrip c [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check bool) "empty" true (roundtrip c [])

let test_out_of_range () =
  Alcotest.(check bool) "uint8" true
    (try ignore (Codec.encode Codec.uint8 256); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "uint16" true
    (try ignore (Codec.encode Codec.uint16 (-1)); false with Invalid_argument _ -> true)

let qcheck_roundtrip name gen codec =
  QCheck.Test.make ~name ~count:300 gen (fun v -> roundtrip codec v)

let props =
  [ qcheck_roundtrip "bool" QCheck.bool Codec.bool;
    qcheck_roundtrip "uint16" (QCheck.int_range 0 0xffff) Codec.uint16;
    qcheck_roundtrip "int" QCheck.int Codec.int;
    qcheck_roundtrip "int32" QCheck.int32 Codec.int32;
    qcheck_roundtrip "int64" QCheck.int64 Codec.int64;
    (* Compare by bit pattern, not (=): the generator covers the whole
       int64 space, so it produces NaNs, and NaN <> NaN. *)
    QCheck.Test.make ~name:"float64" ~count:300
      (QCheck.make QCheck.Gen.(map Int64.float_of_bits int64))
      (fun v ->
        Int64.equal (Int64.bits_of_float v)
          (Int64.bits_of_float (Codec.decode Codec.float64 (Codec.encode Codec.float64 v))));
    qcheck_roundtrip "string" QCheck.(string_of_size (QCheck.Gen.int_range 0 200)) Codec.string;
    qcheck_roundtrip "string list" QCheck.(list_of_size (QCheck.Gen.int_range 0 30) string)
      (Codec.list Codec.string);
    qcheck_roundtrip "nested pair"
      QCheck.(pair (pair int bool) (option string))
      (Codec.pair (Codec.pair Codec.int Codec.bool) (Codec.option Codec.string));
    qcheck_roundtrip "result"
      QCheck.(map (function Ok x -> Ok x | Error e -> Error e) (result int string))
      (Codec.result Codec.int Codec.string) ]

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circus_wire"
    [ ( "buf",
        [ Alcotest.test_case "primitives" `Quick test_buf_primitives;
          Alcotest.test_case "big endian" `Quick test_buf_big_endian;
          Alcotest.test_case "underflow" `Quick test_buf_underflow;
          Alcotest.test_case "scratch writer per domain" `Quick test_with_writer_per_domain ] );
      ( "codec",
        [ Alcotest.test_case "trailing garbage" `Quick test_decode_rejects_trailing_garbage;
          Alcotest.test_case "truncation" `Quick test_decode_rejects_truncation;
          Alcotest.test_case "string padding" `Quick test_string_padding;
          Alcotest.test_case "enum" `Quick test_enum;
          Alcotest.test_case "fix" `Quick test_fix_recursive;
          Alcotest.test_case "out of range" `Quick test_out_of_range ]
        @ qcheck props ) ]
