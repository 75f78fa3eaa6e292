(** Per-thread geometric level generator for skip lists (p = 1/2).

    One PRNG per thread id keeps level choice deterministic inside the
    simulator and contention-free natively. *)

(** Tallest tower any skip list builds, whatever its size hint. *)
let max_levels = 20

module Make (Mem : Ascy_mem.Memory.S) = struct
  type t = { rngs : Ascy_util.Xorshift.t option array; max : int }

  let create max = { rngs = Array.make (Mem.max_threads ()) None; max }

  let next t =
    let me = Mem.self () in
    let rng =
      match t.rngs.(me) with
      | Some r -> r
      | None ->
          let r = Ascy_util.Xorshift.create (0x5EED + (me * 104729)) in
          t.rngs.(me) <- Some r;
          r
    in
    let rec go h = if h < t.max && Ascy_util.Xorshift.below rng 2 = 0 then go (h + 1) else h in
    go 1

  (** Pick the tower height for an expected structure size [hint]. *)
  let max_for_hint hint =
    let rec log2 n acc = if n <= 1 then acc else log2 (n / 2) (acc + 1) in
    max 4 (min max_levels (log2 (max 2 hint) 0 + 2))
end
