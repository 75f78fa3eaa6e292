(** Harris's list re-engineered with ASCY1-2 (paper §5, "harris-opt").

    Two changes with respect to {!Harris}:
    - the {b search} is a pure wait-free traversal: it ignores marked
      nodes, performs no stores and never restarts (ASCY1);
    - the {b parse} of an update still unlinks marked nodes it passes
      (clean-up stores are allowed) but a failed clean-up CAS does not
      restart the operation — the parse re-reads locally and keeps going
      (ASCY2).

    Failed updates naturally perform no stores (ASCY3), and updates use
    the same two CASes as the sequential algorithm plus marking (ASCY4).
    Single-node unlinking is safe without Harris's restart because both
    marking a node and inserting after it CAS the same cell, so a stale
    predecessor always makes the final CAS fail and only the modify phase
    retries. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module E = Ascy_mem.Event

  type 'v node = Nil | Node of { key : int; value : 'v; line : Mem.line; next : 'v link Mem.r }
  and 'v link = { mark : bool; succ : 'v node }

  type 'v t = { head : 'v link Mem.r; ssmem : S.t }

  let name = "ll-harris-opt"

  let create ?hint:_ ?read_only_fail:_ () =
    {
      head = Mem.make_fresh { mark = false; succ = Nil };
      ssmem = S.create ();
    }

  let mk_node key value succ =
    let line = Mem.new_line () in
    Node { key; value; line; next = Mem.make line { mark = false; succ } }

  (* ASCY1 search: no stores, no waiting, no restarts. *)
  let search t k =
    let rec walk (l : 'v link) =
      match l.succ with
      | Nil -> None
      | Node n ->
          Mem.touch n.line;
          let nl = Mem.get n.next in
          if nl.mark || n.key < k then walk nl
          else if n.key = k then Some n.value
          else None
    in
    walk (Mem.get t.head)

  (* ASCY2 parse: cleans up marked nodes opportunistically; on a failed
     clean-up it re-reads the predecessor cell and continues — never
     restarts from the head. *)
  let parse t k =
    Mem.emit E.parse;
    let rec go cell (link : 'v link) =
      if link.mark then
        (* our predecessor was deleted under us; re-anchor via its succ
           (the chain through marked nodes stays intact) *)
        match link.succ with
        | Nil -> (cell, link, Nil)
        | Node n ->
            Mem.touch n.line;
            let nl = Mem.get n.next in
            if n.key < k then go n.next nl else (cell, link, Node n)
      else
        match link.succ with
        | Nil -> (cell, link, Nil)
        | Node n as nd ->
            Mem.touch n.line;
            let nl = Mem.get n.next in
            if nl.mark then begin
              let repl = { mark = false; succ = nl.succ } in
              if Mem.cas cell link repl then begin
                Mem.emit E.cleanup;
                S.free t.ssmem nd;
                go cell repl
              end
              else begin
                Mem.emit E.cas_fail;
                go cell (Mem.get cell) (* local re-read, no restart *)
              end
            end
            else if n.key < k then go n.next nl
            else (cell, link, nd)
    in
    go t.head (Mem.get t.head)

  let rec insert t k v =
    let cell, link, right = parse t k in
    Mem.emit E.parse_end;
    match right with
    | Node n when n.key = k -> false (* read-only fail: ASCY3 *)
    | _ ->
        if (not link.mark) && Mem.cas cell link { mark = false; succ = mk_node k v right } then
          true
        else begin
          Mem.emit E.cas_fail;
          insert t k v
        end

  let rec remove t k =
    let cell, link, right = parse t k in
    Mem.emit E.parse_end;
    match right with
    | Node n when n.key = k ->
        let nl = Mem.get n.next in
        if nl.mark then false (* concurrently deleted: read-only fail *)
        else if Mem.cas n.next nl { mark = true; succ = nl.succ } then begin
          (* single optional unlink; never retried *)
          (if (not link.mark) && Mem.cas cell link { mark = false; succ = nl.succ } then
             S.free t.ssmem right);
          true
        end
        else begin
          Mem.emit E.cas_fail;
          remove t k
        end
    | _ -> false

  let size t =
    let rec go (l : 'v link) acc =
      match l.succ with
      | Nil -> acc
      | Node n ->
          let nl = Mem.get n.next in
          go nl (if nl.mark then acc else acc + 1)
    in
    go (Mem.get t.head) 0

  let validate t =
    let rec go (l : 'v link) last =
      match l.succ with
      | Nil -> Ok ()
      | Node n ->
          let nl = Mem.get n.next in
          if nl.mark then go nl last
          else if n.key <= last then Error "live keys not strictly increasing"
          else go nl n.key
    in
    go (Mem.get t.head) min_int

  let op_done t = S.quiesce t.ssmem
end
