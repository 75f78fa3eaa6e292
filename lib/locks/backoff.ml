(** Bounded exponential backoff for spin loops.

    Keeps contended spinning from melting the simulated (or real)
    interconnect; every CSDS lock in ASCYLIB-OCaml spins through this. *)

(* ascy-lint: allow-mutable-record — the backoff state is created and
   mutated by a single spinning thread; it is never shared. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  type t = { mutable cur : int }

  (* The first delay, and the bound doubling stops at, in [cpu_relax]es. *)
  let first_delay = 2
  let max_delay = 512

  let create () = { cur = first_delay }

  (** Spin for the current delay and double it; once the delay is at
      its bound, also give the processor away ({!Ascy_mem.Memory.S.yield_cpu}:
      natively a short sleep, nothing in the simulator, so simulated
      runs spin exactly as before). *)
  let once t =
    for _ = 1 to t.cur do
      Mem.cpu_relax ()
    done;
    if t.cur < max_delay then t.cur <- t.cur * 2 else Mem.yield_cpu ()
end
