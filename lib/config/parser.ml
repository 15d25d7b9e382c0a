exception Parse_error of string

type token =
  | Word of string
  | Str_lit of string
  | Num_lit of float
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Cmp of Ast.comparison
  | Eof

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

let is_word_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_word_char c = is_word_start c || (c >= '0' && c <= '9') || c = '-'
let is_digit c = c >= '0' && c <= '9'

let tokenize source =
  let n = String.length source in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = source.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' then (emit Lparen; incr i)
    else if c = ')' then (emit Rparen; incr i)
    else if c = ',' then (emit Comma; incr i)
    else if c = '.' then (emit Dot; incr i)
    else if c = '"' then begin
      let start = !i + 1 in
      let j = ref start in
      while !j < n && source.[!j] <> '"' do
        incr j
      done;
      if !j >= n then fail "unterminated string literal";
      emit (Str_lit (String.sub source start (!j - start)));
      i := !j + 1
    end
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit source.[!i + 1]) then begin
      let start = !i in
      incr i;
      while !i < n && (is_digit source.[!i] || source.[!i] = '.') do
        incr i
      done;
      emit (Num_lit (float_of_string (String.sub source start (!i - start))))
    end
    else if c = '=' then (emit (Cmp Ast.Eq); incr i)
    else if c = '<' && !i + 1 < n && source.[!i + 1] = '>' then (emit (Cmp Ast.Ne); i := !i + 2)
    else if c = '<' && !i + 1 < n && source.[!i + 1] = '=' then (emit (Cmp Ast.Le); i := !i + 2)
    else if c = '>' && !i + 1 < n && source.[!i + 1] = '=' then (emit (Cmp Ast.Ge); i := !i + 2)
    else if c = '<' then (emit (Cmp Ast.Lt); incr i)
    else if c = '>' then (emit (Cmp Ast.Gt); incr i)
    else if is_word_start c then begin
      let start = !i in
      while !i < n && is_word_char source.[!i] do
        incr i
      done;
      emit (Word (String.sub source start (!i - start)))
    end
    else fail "unexpected character %C" c
  done;
  emit Eof;
  List.rev !tokens

type state = { mutable tokens : token list; vars : string list }

let peek st = match st.tokens with t :: _ -> t | [] -> Eof
let advance st = match st.tokens with _ :: rest -> st.tokens <- rest | [] -> ()

let var_index st name =
  let rec find i = function
    | [] -> fail "unbound variable %s" name
    | v :: _ when v = name -> i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 st.vars

let rec parse_or st =
  let left = parse_and st in
  match peek st with
  | Word "or" ->
    advance st;
    Ast.Or (left, parse_or st)
  | _ -> left

and parse_and st =
  let left = parse_not st in
  match peek st with
  | Word "and" ->
    advance st;
    Ast.And (left, parse_and st)
  | _ -> left

and parse_not st =
  match peek st with
  | Word "not" ->
    advance st;
    Ast.Not (parse_not st)
  | _ -> parse_atom st

and parse_atom st =
  match peek st with
  | Lparen ->
    advance st;
    let f = parse_or st in
    (match peek st with
    | Rparen -> advance st
    | _ -> fail "expected ')'");
    f
  | Word name -> (
    advance st;
    (match peek st with Dot -> advance st | _ -> fail "expected '.' after variable %s" name);
    let attr =
      match peek st with
      | Word a ->
        advance st;
        a
      | _ -> fail "expected an attribute name"
    in
    let v = var_index st name in
    match peek st with
    | Cmp cmp -> (
      advance st;
      match peek st with
      | Str_lit s ->
        advance st;
        Ast.Compare (v, attr, cmp, Ast.Str s)
      | Num_lit x ->
        advance st;
        Ast.Compare (v, attr, cmp, Ast.Num x)
      | _ -> fail "expected a constant after comparison")
    | _ -> Ast.Property (v, attr))
  | _ -> fail "expected an atom"

let parse source =
  let tokens = tokenize source in
  let st = { tokens; vars = [] } in
  (match peek st with
  | Word "troupe" -> advance st
  | _ -> fail "expected 'troupe'");
  (match peek st with Lparen -> advance st | _ -> fail "expected '('");
  let rec vars acc =
    match peek st with
    | Word v -> (
      advance st;
      match peek st with
      | Comma ->
        advance st;
        vars (v :: acc)
      | Rparen ->
        advance st;
        List.rev (v :: acc)
      | _ -> fail "expected ',' or ')'")
    | _ -> fail "expected a variable name"
  in
  let vars = vars [] in
  (match peek st with
  | Word "where" -> advance st
  | _ -> fail "expected 'where'");
  let st = { st with vars } in
  let formula = parse_or st in
  (match peek st with Eof -> () | _ -> fail "trailing input after specification");
  { Ast.vars; formula }
