exception Decode_error of string

type 'a t = { write : Buf.writer -> 'a -> unit; read : Buf.reader -> 'a }

let make write read = { write; read }

(* Reuses the per-domain scratch writer: no buffer allocation per
   encode (see Buf.with_writer). *)
let encode c v = Buf.with_writer c.write v

let decode c b =
  let r = Buf.reader b in
  try
    let v = c.read r in
    if Buf.remaining r <> 0 then
      raise (Decode_error (Printf.sprintf "%d trailing bytes" (Buf.remaining r)));
    v
  with Buf.Underflow -> raise (Decode_error "truncated input")

let write c = c.write
let read c r = try c.read r with Buf.Underflow -> raise (Decode_error "truncated input")

let unit = make (fun _ () -> ()) (fun _ -> ())

let bool =
  make
    (fun w b -> Buf.write_u8 w (if b then 1 else 0))
    (fun r ->
      match Buf.read_u8 r with
      | 0 -> false
      | 1 -> true
      | n -> raise (Decode_error (Printf.sprintf "bad boolean %d" n)))

let uint8 =
  make
    (fun w v ->
      if v < 0 || v > 0xff then invalid_arg "Codec.uint8: out of range";
      Buf.write_u8 w v)
    Buf.read_u8

let uint16 =
  make
    (fun w v ->
      if v < 0 || v > 0xffff then invalid_arg "Codec.uint16: out of range";
      Buf.write_u16 w v)
    Buf.read_u16

let int32 = make Buf.write_u32 Buf.read_u32
let int64 = make Buf.write_u64 Buf.read_u64
let int = make (fun w v -> Buf.write_u64 w (Int64.of_int v)) (fun r -> Int64.to_int (Buf.read_u64 r))
let float64 =
  make
    (fun w v -> Buf.write_u64 w (Int64.bits_of_float v))
    (fun r -> Int64.float_of_bits (Buf.read_u64 r))

(* Courier pads byte sequences to a 16-bit word boundary. *)
let write_padding w len = if len land 1 = 1 then Buf.write_u8 w 0
let read_padding r len = if len land 1 = 1 then ignore (Buf.read_u8 r)

let string =
  make
    (fun w s ->
      let len = String.length s in
      if len > 0xffff then invalid_arg "Codec.string: too long";
      Buf.write_u16 w len;
      Buf.write_string w s;
      write_padding w len)
    (fun r ->
      let len = Buf.read_u16 r in
      let s = Buf.read_string r len in
      read_padding r len;
      s)

let bytes =
  make
    (fun w b ->
      let len = Bytes.length b in
      if len > 0xffff then invalid_arg "Codec.bytes: too long";
      Buf.write_u16 w len;
      Buf.write_bytes w b;
      write_padding w len)
    (fun r ->
      let len = Buf.read_u16 r in
      let b = Buf.read_bytes r len in
      read_padding r len;
      b)

let pair a b =
  make
    (fun w (x, y) ->
      a.write w x;
      b.write w y)
    (fun r ->
      let x = a.read r in
      let y = b.read r in
      (x, y))

let triple a b c =
  make
    (fun w (x, y, z) ->
      a.write w x;
      b.write w y;
      c.write w z)
    (fun r ->
      let x = a.read r in
      let y = b.read r in
      let z = c.read r in
      (x, y, z))

let option a =
  make
    (fun w v ->
      match v with
      | None -> Buf.write_u8 w 0
      | Some x ->
        Buf.write_u8 w 1;
        a.write w x)
    (fun r ->
      match Buf.read_u8 r with
      | 0 -> None
      | 1 -> Some (a.read r)
      | n -> raise (Decode_error (Printf.sprintf "bad option tag %d" n)))

let list a =
  make
    (fun w xs ->
      let len = List.length xs in
      if len > 0xffff then invalid_arg "Codec.list: too long";
      Buf.write_u16 w len;
      List.iter (a.write w) xs)
    (fun r ->
      let len = Buf.read_u16 r in
      List.init len (fun _ -> a.read r))

let array a =
  make
    (fun w xs ->
      if Array.length xs > 0xffff then invalid_arg "Codec.array: too long";
      Buf.write_u16 w (Array.length xs);
      Array.iter (a.write w) xs)
    (fun r ->
      let len = Buf.read_u16 r in
      Array.init len (fun _ -> a.read r))

let result ok err =
  make
    (fun w v ->
      match v with
      | Ok x ->
        Buf.write_u8 w 0;
        ok.write w x
      | Error e ->
        Buf.write_u8 w 1;
        err.write w e)
    (fun r ->
      match Buf.read_u8 r with
      | 0 -> Ok (ok.read r)
      | 1 -> Error (err.read r)
      | n -> raise (Decode_error (Printf.sprintf "bad result tag %d" n)))

let enum cases =
  make
    (fun w name ->
      match List.assoc_opt name cases with
      | Some v -> Buf.write_u16 w v
      | None -> invalid_arg (Printf.sprintf "Codec.enum: undeclared name %s" name))
    (fun r ->
      let v = Buf.read_u16 r in
      match List.find_opt (fun (_, v') -> v' = v) cases with
      | Some (name, _) -> name
      | None -> raise (Decode_error (Printf.sprintf "undeclared enum value %d" v)))

let map of_wire to_wire c =
  make (fun w v -> c.write w (to_wire v)) (fun r -> of_wire (c.read r))

let variant ~tag ~cases =
  make
    (fun w v ->
      let t = tag v in
      match List.find_opt (fun (t', _, _) -> t' = t) cases with
      | Some (_, write_case, _) ->
        Buf.write_u16 w t;
        write_case w v
      | None -> invalid_arg (Printf.sprintf "Codec.variant: undeclared tag %d" t))
    (fun r ->
      let t = Buf.read_u16 r in
      match List.find_opt (fun (t', _, _) -> t' = t) cases with
      | Some (_, _, read_case) -> read_case r
      | None -> raise (Decode_error (Printf.sprintf "bad variant tag %d" t)))

let custom ~write ~read = make write read

let fix f =
  let rec self = lazy (f wrapped)
  and wrapped =
    { write = (fun w v -> (Lazy.force self).write w v);
      read = (fun r -> (Lazy.force self).read r) }
  in
  wrapped
