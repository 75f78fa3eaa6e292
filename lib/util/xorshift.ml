(** Xorshift128+ pseudo-random number generator.

    A small, fast, seedable PRNG used by workload generators and by the
    simulator's deterministic choices.  Not cryptographic.  Each generator is
    an independent state, so per-thread generators never contend. *)

(* The state is the generator's two 64-bit words in 16 bytes, read and
   written in place: a draw computes on unboxed [int64]s and stores
   them back without allocating or a write barrier. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* SplitMix64's output function. *)
let[@inline] mix z =
  let x = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94D049BB133111EBL in
  Int64.logxor x (Int64.shift_right_logical x 31)

let create seed =
  (* SplitMix64 to spread the seed over both words. *)
  let z = Int64.add (Int64.of_int (seed lxor 0x9E3779B9)) 0x9E3779B97F4A7C15L in
  let s0 = mix z in
  let s1 = mix (Int64.add z 0x9E3779B97F4A7C15L) in
  let s1 = if s0 = 0L && s1 = 0L then 1L else s1 in
  let t = Bytes.create 16 in
  set64 t 0 s0;
  set64 t 8 s1;
  t

let[@inline] next_int64 t =
  let s1 = get64 t 0 and s0 = get64 t 8 in
  set64 t 0 s0;
  let s1 = Int64.logxor s1 (Int64.shift_left s1 23) in
  let s1 =
    Int64.logxor (Int64.logxor s1 (Int64.shift_right_logical s1 17))
      (Int64.logxor s0 (Int64.shift_right_logical s0 26))
  in
  set64 t 8 s1;
  Int64.add s1 s0

(** [next t] returns a non-negative random [int]. *)
let next t = Int64.to_int (next_int64 t) land max_int

(** [below t n] returns a uniform integer in [\[0, n)].  Requires [n > 0].

    Uses rejection sampling: a plain [next t mod n] is modulo-biased
    whenever [n] does not divide [max_int + 1] (for large [n] the low
    residues are visibly more likely).  Draws whose residue class is
    over-represented are redrawn, so every value in [\[0, n)] is exactly
    equally likely.  Still deterministic per seed: the same seed consumes
    the same draw sequence and yields the same values. *)
let below t n =
  if n <= 0 then invalid_arg "Xorshift.below: n must be positive";
  (* [next] is uniform over the [max_int + 1] values in [0, max_int];
     the top [(max_int + 1) mod n] residues would be hit once more than
     the rest, so reject draws above the largest multiple-of-n cutoff.
     A power of two divides [max_int + 1]: nothing is rejected, and the
     residue is a mask.  Otherwise [(max_int + 1) mod n] is
     [max_int mod n + 1]. *)
  if n land (n - 1) = 0 then next t land (n - 1)
  else begin
    let cutoff = max_int - ((max_int mod n) + 1) in
    let x = ref (next t) in
    while !x > cutoff do
      x := next t
    done;
    !x mod n
  end

(** [float t] returns a uniform float in [\[0, 1)]. *)
let float t = float_of_int (next t) /. (float_of_int max_int +. 1.)

(** [bool t p] is [true] with probability [p]. *)
let bool t p = float t < p

(** [copy t] is an independent generator starting from [t]'s current
    state: both produce the same stream from here, and advancing one
    never affects the other. *)
let copy t = Bytes.copy t

(** [split t] derives a child generator from one draw of [t] (advancing
    [t] by exactly one step).  The child is re-seeded through the same
    SplitMix64 spread as {!create}, so consecutive children of one
    parent — and the parent's own continuation — are statistically
    unrelated streams.  Splitting a master generator [k] times is the
    deterministic way to hand [k] workers independent streams: child [i]
    depends only on the seed and [i], never on who consumes it. *)
let split t = create (Int64.to_int (next_int64 t) land max_int)

(* The xorshift128+ jump polynomial (Vigna): xor together the states
   reached at the 1-bits of these two words while stepping the
   generator 128 times. *)
let jump_coeffs = [| 0x8a5cd789635d2dffL; 0x121fd2155c472f96L |]

(** [jump t] advances [t] by 2{^64} steps of {!next_int64} in O(128)
    work, in place.  Jumping a copy [k] times yields [k]
    non-overlapping subsequences of one seed's stream — the classic
    alternative to {!split} when overlap-freedom must be guaranteed
    rather than statistical. *)
let jump t =
  let s0 = ref 0L and s1 = ref 0L in
  Array.iter
    (fun coeff ->
      for b = 0 to 63 do
        if Int64.logand coeff (Int64.shift_left 1L b) <> 0L then begin
          s0 := Int64.logxor !s0 (get64 t 0);
          s1 := Int64.logxor !s1 (get64 t 8)
        end;
        ignore (next_int64 t)
      done)
    jump_coeffs;
  set64 t 0 !s0;
  set64 t 8 !s1
