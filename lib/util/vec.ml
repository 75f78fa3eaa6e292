(** Growable arrays (OCaml 5.1 predates [Stdlib.Dynarray]).

    Only what the simulator and statistics code need: amortized O(1) push,
    O(1) random access, in-place iteration. *)

type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 16) dummy =
  { data = Array.make (max capacity 1) dummy; len = 0; dummy }

let length t = t.len

let clear t = t.len <- 0

(** [truncate t n] drops every element at index [>= n]; [n] must not
    exceed the current length.  O(1): slots are kept for reuse. *)
let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Vec.truncate";
  t.len <- n

let push t x =
  if t.len = Array.length t.data then begin
    let data = Array.make (2 * t.len) t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  t.data.(i) <- x

(** [ensure t n f] grows the vector to length at least [n], filling new
    slots with [f index]. *)
let ensure t n f =
  while t.len < n do
    push t (f t.len)
  done

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_array t = Array.sub t.data 0 t.len

let sort cmp t =
  let a = to_array t in
  Array.sort cmp a;
  Array.blit a 0 t.data 0 t.len
