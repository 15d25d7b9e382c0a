(** Parser for the troupe configuration language.

    Concrete grammar (Figure 7.12):
    {v
      spec       ::= "troupe" "(" ident ("," ident)* ")" "where" formula
      formula    ::= conjunct ("or" conjunct)*
      conjunct   ::= negation ("and" negation)*
      negation   ::= "not" negation | atom
      atom       ::= "(" formula ")"
                   | ident "." ident comparison constant
                   | ident "." ident            -- property
      comparison ::= "=" | "<>" | "<" | "<=" | ">" | ">="
      constant   ::= string-literal | number
    v} *)

exception Parse_error of string

val parse : string -> Ast.spec
