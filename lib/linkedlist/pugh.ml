(** Pugh's concurrent linked list (Table 1, "pugh"; Pugh 1990, restricted
    to one level).

    Hybrid lock-based.  Searches and parses are completely optimistic (no
    stores — ASCY1/2).  An update locks the predecessor and re-stabilizes
    it in place (moving forward, or backward through reversed pointers)
    instead of restarting.  Removal uses {e pointer reversal}: the victim's
    next pointer is redirected to its predecessor, so any traversal
    standing on the victim falls back and finds a correct path. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module L = Ascy_locks.Ttas.Make (Mem)
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module E = Ascy_mem.Event

  type 'v node = Nil | Node of 'v info

  and 'v info = {
    key : int;
    value : 'v option;
    line : Mem.line;
    lock : L.t;
    deleted : bool Mem.r;
    next : 'v node Mem.r;
  }

  type 'v t = { head : 'v node; rof : bool; ssmem : S.t }

  let name = "ll-pugh"

  let mk_node key value next_node =
    let line = Mem.new_line () in
    Node
      {
        key;
        value;
        line;
        lock = L.create line;
        deleted = Mem.make line false;
        next = Mem.make line next_node;
      }

  let create ?hint:_ ?(read_only_fail = true) () =
    {
      head = mk_node min_int None Nil;
      rof = read_only_fail;
      ssmem = S.create ();
    }

  let fields = function Node n -> n | Nil -> assert false

  (* Optimistic parse; tolerates reversed pointers (a deleted node's next
     leads back to its predecessor, whose key is < k, so the loop simply
     keeps going). *)
  let parse t k =
    let rec go pred =
      match Mem.get (fields pred).next with
      | Nil -> (pred, Nil)
      | Node n as nd ->
          Mem.touch n.line;
          if n.key < k then go nd else (pred, nd)
    in
    go t.head

  let search t k =
    let rec go nd =
      match Mem.get (fields nd).next with
      | Nil -> None
      | Node n as x ->
          Mem.touch n.line;
          if n.key < k then go x
          else if n.key = k && not (Mem.get n.deleted) then n.value
          else None
    in
    go t.head

  (* With [pred] locked, slide to the node that is (a) alive and (b) the
     last with key < k; Pugh's getLock.  Returns the locked predecessor. *)
  let rec stabilize t k pred =
    let p = fields pred in
    if Mem.get p.deleted then begin
      (* reversed pointer leads to the true predecessor *)
      let back = Mem.get p.next in
      L.release p.lock;
      Mem.emit E.restart;
      let back = match back with Nil -> t.head | Node _ -> back in
      L.acquire (fields back).lock;
      stabilize t k back
    end
    else
      match Mem.get p.next with
      | Node n as nd when n.key < k ->
          L.acquire n.lock;
          L.release p.lock;
          stabilize t k nd
      | _ -> pred

  let present curr k =
    match curr with Node n when n.key = k -> not (Mem.get n.deleted) | _ -> false

  let insert t k v =
    Mem.emit E.parse;
    let pred0, curr0 = parse t k in
    Mem.emit E.parse_end;
    if t.rof && present curr0 k then false
    else begin
      L.acquire (fields pred0).lock;
      let pred = stabilize t k pred0 in
      let p = fields pred in
      match Mem.get p.next with
      | Node n when n.key = k ->
          (* alive: pred is locked, so n cannot be mid-removal *)
          L.release p.lock;
          false
      | curr ->
          Mem.set p.next (mk_node k (Some v) curr);
          L.release p.lock;
          true
    end

  let remove t k =
    Mem.emit E.parse;
    let pred0, curr0 = parse t k in
    Mem.emit E.parse_end;
    if t.rof && not (present curr0 k) then false
    else begin
      L.acquire (fields pred0).lock;
      let pred = stabilize t k pred0 in
      let p = fields pred in
      match Mem.get p.next with
      | Node n as victim when n.key = k ->
          L.acquire n.lock;
          let succ = Mem.get n.next in
          Mem.set n.deleted true;
          (* pointer reversal: concurrent readers standing on n fall back *)
          Mem.set n.next pred;
          Mem.set p.next succ;
          L.release n.lock;
          L.release p.lock;
          S.free t.ssmem victim;
          true
      | _ ->
          L.release p.lock;
          false
    end

  let size t =
    let rec go nd acc =
      match Mem.get (fields nd).next with
      | Nil -> acc
      | Node n as x -> go x (if Mem.get n.deleted then acc else acc + 1)
    in
    go t.head 0

  let validate t =
    let rec go nd last steps =
      if steps > 10_000_000 then Error "traversal does not terminate"
      else
        match Mem.get (fields nd).next with
        | Nil -> Ok ()
        | Node n as x ->
            if n.key <= last then Error "keys not strictly increasing" else go x n.key (steps + 1)
    in
    go t.head min_int 0

  let op_done t = S.quiesce t.ssmem
end
