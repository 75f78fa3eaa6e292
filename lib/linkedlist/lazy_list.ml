(** Lazy linked list (Heller et al., Table 1 "lazy").

    Hybrid lock-based.  Nodes are removed in two steps — logical marking,
    then physical unlinking — both under the predecessor/victim locks.
    Searches traverse without any synchronization and simply check the
    mark of the candidate node (ASCY1).  With [read_only_fail] (default),
    updates whose parse shows they cannot succeed return without taking
    any lock (ASCY3); with [~read_only_fail:false] this is the paper's
    "lazy-no" variant, which locks and validates before failing. *)

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
    marked : bool Mem.r;
    next : 'v node Mem.r;
  }

  type 'v t = { head : 'v node; rof : bool; ssmem : S.t }

  let name = "ll-lazy"

  let mk_node key value next_node =
    let line = Mem.new_line () in
    Node
      {
        key;
        value;
        line;
        lock = L.create line;
        marked = Mem.make line false;
        next = Mem.make line next_node;
      }

  let create ?hint:_ ?(read_only_fail = true) () =
    {
      head = mk_node min_int None Nil;
      rof = read_only_fail;
      ssmem = S.create ();
    }

  let fields = function Node n -> n | Nil -> assert false

  (* Unsynchronized parse: last node with key < k and its successor. *)
  let parse t k =
    Mem.emit E.parse;
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
          else if n.key = k && not (Mem.get n.marked) then n.value
          else None
    in
    go t.head

  (* Validation under pred's lock: pred alive and still pointing at curr. *)
  let valid pred curr =
    let p = fields pred in
    (not (Mem.get p.marked)) && Mem.get p.next == curr

  let present curr k =
    match curr with Node n when n.key = k -> not (Mem.get n.marked) | _ -> false

  let insert t k v =
    let rec attempt () =
      let pred, curr = parse t k in
      Mem.emit E.parse_end;
      if t.rof && present curr k then false
      else begin
        let p = fields pred in
        L.acquire p.lock;
        if not (valid pred curr) then begin
          L.release p.lock;
          Mem.emit E.restart;
          attempt ()
        end
        else begin
          match curr with
          | Node n when n.key = k ->
              (* validation + pred lock imply curr is alive *)
              L.release p.lock;
              false
          | _ ->
              Mem.set p.next (mk_node k (Some v) curr);
              L.release p.lock;
              true
        end
      end
    in
    attempt ()

  let remove t k =
    let rec attempt () =
      let pred, curr = parse t k in
      Mem.emit E.parse_end;
      if t.rof && not (present curr k) then false
      else begin
        let p = fields pred in
        L.acquire p.lock;
        if not (valid pred curr) then begin
          L.release p.lock;
          Mem.emit E.restart;
          attempt ()
        end
        else begin
          match curr with
          | Node n when n.key = k ->
              L.acquire n.lock;
              Mem.set n.marked true;
              Mem.set p.next (Mem.get n.next);
              L.release n.lock;
              L.release p.lock;
              S.free t.ssmem curr;
              true
          | _ ->
              (* "lazy-no" pays the locking even though the update fails *)
              L.release p.lock;
              false
        end
      end
    in
    attempt ()

  let size t =
    let rec go nd acc =
      match Mem.get (fields nd).next with
      | Nil -> acc
      | Node n as x -> go x (if Mem.get n.marked then acc else acc + 1)
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
