module Codec = Circus_wire.Codec

module Thread_id = struct
  type t = { origin : Circus_net.Addr.host_id; pid : int }

  let equal a b = a.origin = b.origin && a.pid = b.pid

end

module Troupe_id = struct
  type t = int64

  let none = 0L
  let equal = Int64.equal
  let codec = Codec.int64

  (* Sequential ids in a seed-distinguished namespace: unique across
     binding agents, identical across deterministic replicas. *)
  let generator ~seed =
    let counter = ref 0L in
    fun () ->
      counter := Int64.add !counter 1L;
      Int64.logor (Int64.shift_left (Int64.of_int seed) 32) !counter
end
