(** Fraser's lock-free skip list (Table 1 "fraser"; Fraser's PhD, 2004).

    Updates CAS at each level; deletion marks every level of the victim's
    tower top-down.  The traversal ([find]) physically unlinks marked
    nodes as it goes and — the behaviour ASCY1/2 later remove — {e
    restarts from the head} whenever a clean-up CAS fails or it lands on
    a marked node when switching levels.  Every operation, including
    search, runs through [find]. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module Lg = Level_gen.Make (Mem)
  module E = Ascy_mem.Event
  module T = Tower.Make (Mem)
  open T

  type 'v t = { head : 'v info; levels : Lg.t; ssmem : S.t }

  let name = "sl-fraser"

  let create ?hint ?read_only_fail:_ () =
    let max_level = Lg.max_for_hint (Option.value hint ~default:1024) in
    {
      head = mk_info min_int None max_level;
      levels = Lg.create max_level;
      ssmem = S.create ();
    }

  let height t = Array.length t.head.nexts

  exception Restart

  (* Fraser's find: fills preds/pred-links/succs for every level, snipping
     marked nodes; restarts from scratch on any inconsistency. *)
  let find t k preds plinks succs =
    let h = height t in
    let rec attempt () =
      match
        let rec level info lvl =
          if lvl < 0 then ()
          else begin
            let cell = info.nexts.(lvl) in
            let l = Mem.get cell in
            if l.mark then raise Restart;
            match l.succ with
            | Node n ->
                Mem.touch n.line;
                let nl = Mem.get n.nexts.(lvl) in
                if nl.mark then begin
                  (* snip the marked node at this level *)
                  if Mem.cas cell l { mark = false; succ = nl.succ } then begin
                    Mem.emit E.cleanup;
                    if lvl = 0 then S.free t.ssmem n;
                    level info lvl
                  end
                  else begin
                    Mem.emit E.cas_fail;
                    raise Restart
                  end
                end
                else if n.key < k then level n lvl
                else begin
                  preds.(lvl) <- info;
                  plinks.(lvl) <- l;
                  succs.(lvl) <- l.succ;
                  level info (lvl - 1)
                end
            | Nil ->
                preds.(lvl) <- info;
                plinks.(lvl) <- l;
                succs.(lvl) <- Nil;
                level info (lvl - 1)
          end
        in
        level t.head (h - 1)
      with
      | () -> ()
      | exception Restart ->
          (* a restarted traversal is a whole extra parse (the ASCY2
             overhead the paper quantifies) *)
          Mem.emit E.restart;
          Mem.emit E.parse;
          attempt ()
    in
    attempt ()

  let mk_arrays t = (Array.make (height t) t.head, Array.make (height t) { mark = false; succ = Nil }, Array.make (height t) Nil)

  let search t k =
    let preds, plinks, succs = mk_arrays t in
    find t k preds plinks succs;
    match succs.(0) with Node n when n.key = k -> n.value | _ -> None

  let insert t k v =
    Mem.emit E.parse;
    let preds, plinks, succs = mk_arrays t in
    let rec attempt () =
      find t k preds plinks succs;
      Mem.emit E.parse_end;
      match succs.(0) with
      | Node n when n.key = k -> false
      | _ ->
          let h = Lg.next t.levels in
          let node = mk_info k (Some v) h in
          for lvl = 0 to h - 1 do
            Mem.set node.nexts.(lvl) { mark = false; succ = succs.(lvl) }
          done;
          if not (Mem.cas preds.(0).nexts.(0) plinks.(0) { mark = false; succ = Node node }) then begin
            Mem.emit E.cas_fail;
            Mem.emit E.parse;
            attempt ()
          end
          else begin
            (* link the upper levels; abandon if the node gets deleted *)
            let rec link lvl =
              if lvl < h then begin
                let cur = Mem.get node.nexts.(lvl) in
                if cur.mark then () (* concurrently deleted *)
                else if
                  (match succs.(lvl) with Node s -> s == node | Nil -> false)
                  (* find can return the node itself once it is linked *)
                then link (lvl + 1)
                else begin
                  if cur.succ != succs.(lvl) then
                    ignore (Mem.cas node.nexts.(lvl) cur { mark = false; succ = succs.(lvl) });
                  let cur = Mem.get node.nexts.(lvl) in
                  if cur.mark then ()
                  else if
                    Mem.cas preds.(lvl).nexts.(lvl) plinks.(lvl) { mark = false; succ = Node node }
                  then link (lvl + 1)
                  else begin
                    Mem.emit E.cas_fail;
                    find t k preds plinks succs;
                    Mem.emit E.parse_end;
                    link lvl
                  end
                end
              end
            in
            link 1;
            true
          end
    in
    attempt ()

  let remove t k =
    Mem.emit E.parse;
    let preds, plinks, succs = mk_arrays t in
    find t k preds plinks succs;
    Mem.emit E.parse_end;
    match succs.(0) with
    | Node n when n.key = k ->
        (* mark the tower top-down; level 0 decides success *)
        let h = Array.length n.nexts in
        for lvl = h - 1 downto 1 do
          let rec mark () =
            let l = Mem.get n.nexts.(lvl) in
            if not l.mark then
              if not (Mem.cas n.nexts.(lvl) l { mark = true; succ = l.succ }) then begin
                Mem.emit E.cas_fail;
                mark ()
              end
          in
          mark ()
        done;
        let rec mark0 () =
          let l = Mem.get n.nexts.(0) in
          if l.mark then false
          else if Mem.cas n.nexts.(0) l { mark = true; succ = l.succ } then true
          else begin
            Mem.emit E.cas_fail;
            mark0 ()
          end
        in
        if mark0 () then begin
          (* physical clean-up via a fresh traversal *)
          find t k preds plinks succs;
          true
        end
        else false
    | _ -> false

  let size t = size_of t.head
  let validate t = validate_of t.head
  let op_done t = S.quiesce t.ssmem
end
