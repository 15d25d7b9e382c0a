type host_id = int
type t = { host : host_id; port : int }
type module_addr = { process : t; module_no : int }

let make ~host ~port = { host; port }
let equal a b = a.host = b.host && a.port = b.port

let compare a b =
  let c = Int.compare a.host b.host in
  if c <> 0 then c else Int.compare a.port b.port

let module_addr process module_no = { process; module_no }
let equal_module a b = equal a.process b.process && a.module_no = b.module_no

let compare_module a b =
  let c = compare a.process b.process in
  if c <> 0 then c else Int.compare a.module_no b.module_no
