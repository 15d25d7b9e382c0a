module Codec = Circus_wire.Codec

type value =
  | Bool of bool
  | Card of int
  | Long_card of int32
  | Int of int
  | Long_int of int32
  | Str of string
  | Word of int
  | Enum of string
  | Arr of value list
  | Seq of value list
  | Rec of (string * value) list
  | Ch of string * value

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

(* 16-bit two's complement carried in a CARDINAL slot. *)
let int16 =
  Codec.map
    (fun u -> if u >= 0x8000 then u - 0x10000 else u)
    (fun i ->
      if i < -0x8000 || i > 0x7fff then type_error "INTEGER %d out of range" i
      else i land 0xffff)
    Codec.uint16

let rec codec program (ty : Ast.ty) : value Codec.t =
  match ty with
  | Ast.Named name -> codec program (Check.resolve program name)
  | Ast.Boolean ->
    Codec.map (fun b -> Bool b) (function Bool b -> b | _ -> type_error "expected BOOLEAN") Codec.bool
  | Ast.Cardinal ->
    Codec.map (fun v -> Card v) (function Card v -> v | _ -> type_error "expected CARDINAL") Codec.uint16
  | Ast.Long_cardinal ->
    Codec.map
      (fun v -> Long_card v)
      (function Long_card v -> v | _ -> type_error "expected LONG CARDINAL")
      Codec.int32
  | Ast.Integer ->
    Codec.map (fun v -> Int v) (function Int v -> v | _ -> type_error "expected INTEGER") int16
  | Ast.Long_integer ->
    Codec.map
      (fun v -> Long_int v)
      (function Long_int v -> v | _ -> type_error "expected LONG INTEGER")
      Codec.int32
  | Ast.String ->
    Codec.map (fun s -> Str s) (function Str s -> s | _ -> type_error "expected STRING") Codec.string
  | Ast.Unspecified ->
    Codec.map (fun v -> Word v) (function Word v -> v | _ -> type_error "expected UNSPECIFIED") Codec.uint16
  | Ast.Enumeration cases ->
    Codec.map (fun name -> Enum name)
      (function Enum name -> name | _ -> type_error "expected an enumeration value")
      (Codec.enum cases)
  | Ast.Array (n, elem) ->
    let elem_codec = codec program elem in
    Codec.map
      (fun vs -> Arr (Array.to_list vs))
      (function
        | Arr vs when List.length vs = n -> Array.of_list vs
        | Arr vs -> type_error "ARRAY expects %d elements, got %d" n (List.length vs)
        | _ -> type_error "expected ARRAY")
      (Codec.array elem_codec)
  | Ast.Sequence elem ->
    let elem_codec = codec program elem in
    Codec.map (fun vs -> Seq vs)
      (function Seq vs -> vs | _ -> type_error "expected SEQUENCE")
      (Codec.list elem_codec)
  | Ast.Record fields ->
    let codecs = List.map (fun f -> (f.Ast.field_name, codec program f.Ast.field_type)) fields in
    Codec.custom
      ~write:(fun w v ->
        match v with
        | Rec assoc ->
          List.iter
            (fun (name, c) ->
              match List.assoc_opt name assoc with
              | Some field_value -> Codec.write c w field_value
              | None -> type_error "missing field %s" name)
            codecs
        | _ -> type_error "expected RECORD")
      ~read:(fun r -> Rec (List.map (fun (name, c) -> (name, Codec.read c r)) codecs))
  | Ast.Choice cases ->
    let find_by_name name =
      match List.find_opt (fun (n, _, _) -> n = name) cases with
      | Some case -> case
      | None -> type_error "unknown choice case %s" name
    in
    Codec.variant
      ~tag:(function
        | Ch (name, _) ->
          let _, tag, _ = find_by_name name in
          tag
        | _ -> type_error "expected CHOICE")
      ~cases:
        (List.map
           (fun (name, tag, case_ty) ->
             let c = codec program case_ty in
             ( tag,
               (fun w v ->
                 match v with
                 | Ch (_, payload) -> Codec.write c w payload
                 | _ -> type_error "expected CHOICE"),
               fun r -> Ch (name, Codec.read c r) ))
           cases)

let rec pp ppf = function
  | Bool b -> Format.pp_print_bool ppf b
  | Card n | Word n -> Format.pp_print_int ppf n
  | Long_card n | Long_int n -> Format.fprintf ppf "%ld" n
  | Int n -> Format.pp_print_int ppf n
  | Str s -> Format.fprintf ppf "%S" s
  | Enum name -> Format.pp_print_string ppf name
  | Arr vs | Seq vs ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp)
      vs
  | Rec fields ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         (fun ppf (n, v) -> Format.fprintf ppf "%s=%a" n pp v))
      fields
  | Ch (name, v) -> Format.fprintf ppf "%s(%a)" name pp v

let equal a b = a = b
