(* Tests for the Courier-like stub compiler: lexer, parser, checker,
   dynamic codecs, and the OCaml code generator. *)

open Circus_idl

(* Figure 7.2, extended with enumeration, array, and choice to cover the
   whole constructed-type repertoire. *)
let name_server_src =
  {|
NameServer: PROGRAM 26 VERSION 1 =
BEGIN
  -- Types.
  Name: TYPE = STRING;
  Property: TYPE = RECORD [name: Name, value: SEQUENCE OF UNSPECIFIED];
  Properties: TYPE = SEQUENCE OF Property;
  Color: TYPE = {red(0), green(1), blue(2)};
  Pair: TYPE = ARRAY 2 OF CARDINAL;
  Shape: TYPE = CHOICE OF {circle(0) => CARDINAL, label(1) => STRING};
  -- Errors.
  AlreadyExists: ERROR = 0;
  NotFound: ERROR = 1;
  -- Procedures.
  Register: PROCEDURE [name: Name, properties: Properties]
    REPORTS [AlreadyExists] = 0;
  Lookup: PROCEDURE [name: Name]
    RETURNS [properties: Properties]
    REPORTS [NotFound] = 1;
  Delete: PROCEDURE [name: Name]
    REPORTS [NotFound] = 2;
END.
|}

let parsed = lazy (Parser.parse name_server_src)

let test_parse_figure_7_2 () =
  let p = Lazy.force parsed in
  Alcotest.(check string) "name" "NameServer" p.Ast.program_name;
  Alcotest.(check int) "program no" 26 p.Ast.program_no;
  Alcotest.(check int) "version" 1 p.Ast.version;
  Alcotest.(check int) "types" 6 (List.length (Ast.types p));
  Alcotest.(check int) "errors" 2 (List.length (Ast.errors p));
  Alcotest.(check int) "procs" 3 (List.length (Ast.procs p));
  let lookup = List.find (fun pr -> pr.Ast.proc_name = "Lookup") (Ast.procs p) in
  Alcotest.(check int) "lookup code" 1 lookup.Ast.proc_code;
  Alcotest.(check (list string)) "lookup reports" [ "NotFound" ] lookup.Ast.proc_reports

let test_check_accepts () = Check.check (Lazy.force parsed)

let expect_check_error src =
  match Check.check (Parser.parse src) with
  | () -> Alcotest.fail "expected a check error"
  | exception Check.Check_error _ -> ()

let test_check_rejects_undeclared_type () =
  expect_check_error
    "P: PROGRAM 1 VERSION 1 = BEGIN X: TYPE = SEQUENCE OF Missing; END."

let test_check_rejects_recursive_type () =
  expect_check_error
    "P: PROGRAM 1 VERSION 1 = BEGIN A: TYPE = RECORD [next: A, v: CARDINAL]; END."

let test_check_rejects_duplicate_proc_codes () =
  expect_check_error
    "P: PROGRAM 1 VERSION 1 = BEGIN F: PROCEDURE = 0; G: PROCEDURE = 0; END."

let test_check_rejects_unknown_report () =
  expect_check_error
    "P: PROGRAM 1 VERSION 1 = BEGIN F: PROCEDURE REPORTS [Nope] = 0; END."

let test_parse_error_position () =
  match Parser.parse "P: PROGRAM 1 VERSION 1 =\nBEGIN\nX: TYPE == STRING;\nEND." with
  | _ -> Alcotest.fail "expected parse error"
  | exception Parser.Parse_error { line; _ } -> Alcotest.(check int) "line" 3 line

(* ------------------------------------------------------------------ *)
(* Dynamic codecs *)

let roundtrip program ty v =
  let c = Dynamic.codec program ty in
  Dynamic.equal v (Circus_wire.Codec.decode c (Circus_wire.Codec.encode c v))

let test_dynamic_roundtrips () =
  let p = Lazy.force parsed in
  let samples =
    [ (Ast.Named "Name", Dynamic.Str "printer-37");
      ( Ast.Named "Property",
        Dynamic.Rec [ ("name", Dynamic.Str "speed"); ("value", Dynamic.Seq [ Dynamic.Word 9 ]) ] );
      ( Ast.Named "Properties",
        Dynamic.Seq
          [ Dynamic.Rec [ ("name", Dynamic.Str "a"); ("value", Dynamic.Seq []) ];
            Dynamic.Rec [ ("name", Dynamic.Str "b"); ("value", Dynamic.Seq [ Dynamic.Word 1 ]) ] ] );
      (Ast.Named "Color", Dynamic.Enum "green");
      (Ast.Named "Pair", Dynamic.Arr [ Dynamic.Card 7; Dynamic.Card 9 ]);
      (Ast.Named "Shape", Dynamic.Ch ("circle", Dynamic.Card 5));
      (Ast.Named "Shape", Dynamic.Ch ("label", Dynamic.Str "x"));
      (Ast.Integer, Dynamic.Int (-1234));
      (Ast.Integer, Dynamic.Int 0x7fff);
      (Ast.Long_integer, Dynamic.Long_int (-100000l)) ]
  in
  List.iter
    (fun (ty, v) ->
      Alcotest.(check bool)
        (Format.asprintf "%a" Dynamic.pp v)
        true (roundtrip p ty v))
    samples

let test_dynamic_type_errors () =
  let p = Lazy.force parsed in
  let c = Dynamic.codec p (Ast.Named "Color") in
  Alcotest.(check bool) "wrong value" true
    (try ignore (Circus_wire.Codec.encode c (Dynamic.Card 1)); false
     with Dynamic.Type_error _ -> true);
  Alcotest.(check bool) "undeclared enum name" true
    (try ignore (Circus_wire.Codec.encode c (Dynamic.Enum "mauve")); false
     with Invalid_argument _ | Dynamic.Type_error _ -> true)

(* The derived codec is the type check: it encodes exactly the values
   that conform to the type and raises [Type_error] on the rest. *)
let test_conforms () =
  let p = Lazy.force parsed in
  let conforms ty v =
    match Circus_wire.Codec.encode (Dynamic.codec p ty) v with
    | _ -> true
    | exception Dynamic.Type_error _ -> false
  in
  Alcotest.(check bool) "good pair" true
    (conforms (Ast.Named "Pair") (Dynamic.Arr [ Dynamic.Card 1; Dynamic.Card 2 ]));
  Alcotest.(check bool) "wrong arity" false
    (conforms (Ast.Named "Pair") (Dynamic.Arr [ Dynamic.Card 1 ]));
  Alcotest.(check bool) "integer range" false (conforms Ast.Integer (Dynamic.Int 40000))

let gen_value =
  (* Random Properties values for a qcheck roundtrip. *)
  let open QCheck.Gen in
  let prop =
    map2
      (fun name words ->
        Dynamic.Rec [ ("name", Dynamic.Str name); ("value", Dynamic.Seq (List.map (fun w -> Dynamic.Word w) words)) ])
      (string_size ~gen:printable (int_range 0 12))
      (list_size (int_range 0 8) (int_range 0 0xffff))
  in
  list_size (int_range 0 10) prop

let prop_dynamic_roundtrip =
  QCheck.Test.make ~name:"Properties roundtrip" ~count:200
    (QCheck.make gen_value)
    (fun props ->
      let p = Lazy.force parsed in
      roundtrip p (Ast.Named "Properties") (Dynamic.Seq props))

(* ------------------------------------------------------------------ *)
(* Code generator *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_codegen_output_shape () =
  let src = Codegen.generate (Lazy.force parsed) in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("contains " ^ fragment) true (contains src fragment))
    [ "type name = string";
      "type properties = property list";
      "exception Report of error_report";
      "let register_args_codec";
      "module Client";
      "module Server";
      "let export rt impl = Runtime.export rt (dispatch impl)";
      "| AlreadyExists";
      "`Red" ]

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circus_idl"
    [ ( "parser",
        [ Alcotest.test_case "figure 7.2" `Quick test_parse_figure_7_2;
          Alcotest.test_case "error position" `Quick test_parse_error_position ] );
      ( "checker",
        [ Alcotest.test_case "accepts" `Quick test_check_accepts;
          Alcotest.test_case "undeclared type" `Quick test_check_rejects_undeclared_type;
          Alcotest.test_case "recursive type" `Quick test_check_rejects_recursive_type;
          Alcotest.test_case "duplicate codes" `Quick test_check_rejects_duplicate_proc_codes;
          Alcotest.test_case "unknown report" `Quick test_check_rejects_unknown_report ] );
      ( "dynamic",
        [ Alcotest.test_case "roundtrips" `Quick test_dynamic_roundtrips;
          Alcotest.test_case "type errors" `Quick test_dynamic_type_errors;
          Alcotest.test_case "conforms" `Quick test_conforms ]
        @ qcheck [ prop_dynamic_roundtrip ] );
      ("codegen", [ Alcotest.test_case "output shape" `Quick test_codegen_output_shape ]) ]
