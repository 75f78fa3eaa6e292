(** Michael's lock-free linked list (Table 1, "michael"; SPAA 2002).

    A refactoring of Harris's list that unlinks logically-deleted nodes
    {e one at a time} so that each physically-removed node can be handed
    to the memory allocator immediately — the property that makes the
    algorithm compatible with non-blocking reclamation (here SSMEM).
    Any failed clean-up CAS restarts the traversal from the head. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module E = Ascy_mem.Event

  type 'v node = Nil | Node of { key : int; value : 'v; line : Mem.line; next : 'v link Mem.r }
  and 'v link = { mark : bool; succ : 'v node }

  type 'v t = { head : 'v link Mem.r; ssmem : S.t }

  let name = "ll-michael"

  let create ?hint:_ ?read_only_fail:_ () =
    {
      head = Mem.make_fresh { mark = false; succ = Nil };
      ssmem = S.create ();
    }

  let mk_node key value succ =
    let line = Mem.new_line () in
    Node { key; value; line; next = Mem.make line { mark = false; succ } }

  (* Michael's find: (prev_cell, prev_link, curr) with prev_link unmarked,
     read from prev_cell, and prev_link.succ == curr. *)
  let rec find t k =
    let rec go cell (link : 'v link) =
      match link.succ with
      | Nil -> (cell, link, Nil)
      | Node n as nd ->
          Mem.touch n.line;
          let nl = Mem.get n.next in
          if nl.mark then begin
            (* unlink this single node or start over *)
            let repl = { mark = false; succ = nl.succ } in
            if Mem.cas cell link repl then begin
              Mem.emit E.cleanup;
              S.free t.ssmem nd;
              go cell repl
            end
            else begin
              Mem.emit E.cas_fail;
              Mem.emit E.restart;
              find t k
            end
          end
          else if n.key < k then go n.next nl
          else (cell, link, nd)
    in
    go t.head (Mem.get t.head)

  let search t k =
    match find t k with _, _, Node n when n.key = k -> Some n.value | _ -> None

  let rec insert t k v =
    Mem.emit E.parse;
    let cell, link, right = find t k in
    Mem.emit E.parse_end;
    match right with
    | Node n when n.key = k -> false
    | _ ->
        if Mem.cas cell link { mark = false; succ = mk_node k v right } then true
        else begin
          Mem.emit E.cas_fail;
          insert t k v
        end

  let rec remove t k =
    Mem.emit E.parse;
    let cell, link, right = find t k in
    Mem.emit E.parse_end;
    match right with
    | Node n when n.key = k ->
        let nl = Mem.get n.next in
        if nl.mark then remove t k
        else if Mem.cas n.next nl { mark = true; succ = nl.succ } then begin
          (if Mem.cas cell link { mark = false; succ = nl.succ } then S.free t.ssmem right
           else ignore (find t k));
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
