(** Harris's lock-free linked list (Table 1, "harris"; DISC 2001).

    Nodes are deleted in two steps: the victim's next pointer is marked
    with a CAS (logical deletion), then a second CAS snips the whole
    marked run out of the list.  Every operation — including search —
    goes through [find], which performs the snipping and {e restarts from
    the head} when a clean-up CAS fails or the candidate is marked.
    Those restarts/stores in the search path are exactly what ASCY1
    forbids; see {!Harris_opt} for the re-engineered version.

    Representation: a node's next cell holds an immutable [link] record
    [{ mark; succ }]; marking or redirecting swaps the whole record with a
    physical-equality CAS (the OCaml equivalent of pointer tagging). *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module E = Ascy_mem.Event

  type 'v node = Nil | Node of { key : int; value : 'v; line : Mem.line; next : 'v link Mem.r }
  and 'v link = { mark : bool; succ : 'v node }

  type 'v t = { head : 'v link Mem.r; ssmem : S.t }

  let name = "ll-harris"

  let create ?hint:_ ?read_only_fail:_ () =
    {
      head = Mem.make_fresh { mark = false; succ = Nil };
      ssmem = S.create ();
    }

  let mk_node key value succ =
    let line = Mem.new_line () in
    Node { key; value; line; next = Mem.make line { mark = false; succ } }

  let is_marked = function Nil -> false | Node n -> (Mem.get n.next).mark

  let free_run t from until =
    let rec go nd =
      if nd != until then
        match nd with
        | Nil -> ()
        | Node n ->
            S.free t.ssmem nd;
            go (Mem.get n.next).succ
    in
    go from

  (* Harris's find: left/right with all marked nodes in between snipped
     out.  Postcondition: the returned [left_link] was read from
     [left_cell], is unmarked, and [left_link.succ == right]. *)
  let rec find t k =
    let left_cell = ref t.head in
    let left_link = ref (Mem.get t.head) in
    let rec walk (cur : 'v link) =
      match cur.succ with
      | Nil -> Nil
      | Node n as nd ->
          Mem.touch n.line;
          let nl = Mem.get n.next in
          if nl.mark then walk nl (* traverse through the marked run *)
          else if n.key < k then begin
            left_cell := n.next;
            left_link := nl;
            walk nl
          end
          else nd
    in
    let right = walk !left_link in
    if !left_link.succ == right then
      if is_marked right then begin
        Mem.emit E.restart;
        find t k
      end
      else (!left_cell, !left_link, right)
    else begin
      (* snip the marked run between left and right *)
      let repl = { mark = false; succ = right } in
      if Mem.cas !left_cell !left_link repl then begin
        Mem.emit E.cleanup;
        free_run t !left_link.succ right;
        if is_marked right then begin
          Mem.emit E.restart;
          find t k
        end
        else (!left_cell, !left_link, right)
      end
      else begin
        Mem.emit E.cas_fail;
        Mem.emit E.restart;
        find t k
      end
    end

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
          (* one shot at physical removal; find() cleans up otherwise *)
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
          if nl.mark then go nl last (* marked nodes may duplicate live keys *)
          else if n.key <= last then Error "live keys not strictly increasing"
          else go nl n.key
    in
    go (Mem.get t.head) min_int

  let op_done t = S.quiesce t.ssmem
end
