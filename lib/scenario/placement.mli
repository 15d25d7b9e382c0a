(** Locality-aware troupe placement over the configuration solver.

    The scenario's placement question — "which [replicas] distinct
    server hosts run this troupe?" — is phrased as a {!Circus_config}
    spec (one variable per member, each pinned to a target shard and
    required to be a server) and answered by {!Solver.instantiate}.
    Ranking the candidate machines least-loaded-first makes the
    solver's first solution the balanced one; the target shards
    themselves are chosen so the first member shares the callers' shard
    (intra-shard calls never cross a domain boundary) and the remaining
    replicas spread over the least-loaded other shards (a crash or
    partition of one shard leaves a majority elsewhere). *)

open Circus_net
open Circus_config

type t

val create : lps:int -> unit -> t

val add_server : t -> lp:int -> Host.t -> unit
(** Register a candidate server host living on shard [lp].  The host
    should carry {!server_attributes}. *)

val server_attributes : lp:int -> (string * Host.attribute_value) list
(** Attributes the placement spec matches on ([server] flag, [lp]
    number) — pass to [Cluster.add_host ~attributes]. *)

val server_count : t -> int

val place : t -> caller_lp:int -> replicas:int -> (Solver.machine list, string) result
(** Choose [replicas] distinct hosts for one troupe and charge their
    load counters.  Deterministic: equal call sequences give equal
    placements. *)
