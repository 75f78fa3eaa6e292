(** The O(1) uniform-cost model ({!Cohmodel.S}): every access is a
    private-cache hit; atomics pay the platform's atomic surcharge on
    top.  No line state, no tag arrays, no per-line directory — creating
    an instance allocates nothing beyond the record, and an access
    touches no state.

    Use it where timing fidelity is irrelevant and run volume is the
    bottleneck: SCT/DPOR exploration re-executes the program once per
    explored schedule under a {e controlled} scheduler, so program
    behavior, oracle verdicts, DPOR dependence (per-line read/write
    conflicts) and therefore schedule counts are identical under any
    cost model — only the clock values differ.  The same holds for
    analysis sweeps driven by controlled schedules.

    Do not use it to {e measure} anything: throughput, latency classes,
    power and NUMA effects all degenerate by construction (every access
    reports class [Tc_l1]).  The default free-running policy is also
    latency-driven, so interleavings of uncontrolled runs differ from
    the MESI model's. *)

module P = Ascy_platform.Platform
open Simtypes

let name = "flat"

type t = { plat : P.t }

let create ~platform = { plat = platform }

let on_new_line _ _ = ()

let em = P.energy_model

let access t cnt ~core:_ ~socket:_ kind _line =
  cnt.l1 <- cnt.l1 + 1;
  cnt.energy.nj <- cnt.energy.nj +. em.P.nj_l1;
  cnt.last_class <- Tc_l1;
  match kind with
  | Read | Write -> t.plat.P.c_l1
  | Rmw ->
      cnt.rmw <- cnt.rmw + 1;
      t.plat.P.c_l1 + t.plat.P.c_atomic

(* No line is ever dirty elsewhere: transactions only abort on
   capacity. *)
let txn_conflict _ ~core:_ _ = false
let txn_line_cost t ~core:_ _ = t.plat.P.c_l1
let txn_commit _ ~core:_ ~socket:_ _ = ()
let warm _ ~nlines:_ = ()
