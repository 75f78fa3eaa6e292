(** Key-to-bucket hashing shared by all hash tables.

    Fibonacci (multiplicative) hashing: cheap, and spreads the uniform or
    clustered integer keys the workloads generate.  Bucket counts are
    always powers of two. *)

let phi = 0x1E3779B97F4A7C15 (* golden-ratio constant, truncated to 61 bits *)

(* Keep the result non-negative on 63-bit ints. *)
let mix k = (k * phi) lxor ((k * phi) asr 29) land max_int

let bucket k mask = mix k land mask

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(** Expected size a table is built for when [create] gets no [?hint]. *)
let default_buckets = 1024

(** The expected size behind [create ?hint]: [hint] (at least 1), or
    {!default_buckets}. *)
let size_hint = function Some h -> max 1 h | None -> default_buckets

(** Bucket count for [create ?hint]: the expected size rounded up to a
    power of two. *)
let buckets hint = pow2_at_least (size_hint hint) 1
