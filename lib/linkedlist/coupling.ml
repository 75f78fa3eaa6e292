(** Linked list with hand-over-hand (lock-coupling) locking (Table 1,
    "coupling"; Herlihy & Shavit).  Fully lock-based: all three operations
    hold two node locks while traversing, so even searches store to shared
    memory on every step — the canonical anti-ASCY baseline. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module L = Ascy_locks.Ttas.Make (Mem)
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module E = Ascy_mem.Event

  type 'v node = Nil | Node of 'v info
  and 'v info = { key : int; value : 'v option; line : Mem.line; lock : L.t; next : 'v node Mem.r }

  type 'v t = { head : 'v node; ssmem : S.t }

  let name = "ll-coupling"

  let mk_node key value next_node =
    let line = Mem.new_line () in
    Node { key; value; line; lock = L.create line; next = Mem.make line next_node }

  let create ?hint:_ ?read_only_fail:_ () =
    { head = mk_node min_int None Nil; ssmem = S.create () }

  let fields = function
    | Node n -> n
    | Nil -> assert false

  (* Traverse with coupled locks until the successor of the locked [pred]
     has key >= k (or is Nil); returns [pred] still locked. *)
  let locate t k =
    let pred = t.head in
    L.acquire (fields pred).lock;
    let rec go pred =
      let p = fields pred in
      match Mem.get p.next with
      | Nil -> (pred, Nil)
      | Node n as nd ->
          Mem.touch n.line;
          if n.key < k then begin
            L.acquire n.lock;
            L.release p.lock;
            go nd
          end
          else (pred, nd)
    in
    go pred

  let search t k =
    let pred, curr = locate t k in
    let res = match curr with Node n when n.key = k -> n.value | _ -> None in
    L.release (fields pred).lock;
    res

  let insert t k v =
    Mem.emit E.parse;
    let pred, curr = locate t k in
    Mem.emit E.parse_end;
    let p = fields pred in
    match curr with
    | Node n when n.key = k ->
        L.release p.lock;
        false
    | _ ->
        Mem.set p.next (mk_node k (Some v) curr);
        L.release p.lock;
        true

  let remove t k =
    Mem.emit E.parse;
    let pred, curr = locate t k in
    Mem.emit E.parse_end;
    let p = fields pred in
    match curr with
    | Node n when n.key = k ->
        L.acquire n.lock;
        Mem.set p.next (Mem.get n.next);
        L.release n.lock;
        L.release p.lock;
        S.free t.ssmem curr;
        true
    | _ ->
        L.release p.lock;
        false

  let size t =
    let rec go nd acc =
      match Mem.get (fields nd).next with Nil -> acc | Node _ as n -> go n (acc + 1)
    in
    go t.head 0

  let validate t =
    let rec go nd last =
      match Mem.get (fields nd).next with
      | Nil -> Ok ()
      | Node n as x -> if n.key <= last then Error "keys not strictly increasing" else go x n.key
    in
    go t.head min_int

  let op_done t = S.quiesce t.ssmem
end
