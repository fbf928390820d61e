type entry = { rule : string; path : string; line : int }
type t = { items : entry list }

let empty = { items = [] }

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let parse contents =
  let lines = String.split_on_char '\n' contents in
  let rec go lineno acc = function
    | [] -> Ok { items = List.rev acc }
    | line :: rest -> (
        match split_words (strip_comment line) with
        | [] -> go (lineno + 1) acc rest
        | [ rule; path ] ->
            go (lineno + 1) ({ rule; path; line = lineno } :: acc) rest
        | _ ->
            Error
              (Printf.sprintf
                 "lint.allow:%d: expected '<rule-id> <path>' (plus optional \
                  # comment), got %S"
                 lineno (String.trim line)))
  in
  go 1 [] lines

let load path =
  if not (Sys.file_exists path) then Ok empty
  else
    let ic = open_in_bin path in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    parse contents

let permits t ~rule ~file =
  List.exists
    (fun e -> (e.rule = "*" || String.equal e.rule rule) && String.equal e.path file)
    t.items

let entries t = List.map (fun e -> (e.rule, e.path)) t.items
let entries_located t = List.map (fun e -> (e.rule, e.path, e.line)) t.items

(* An entry is stale when its rule was in scope for this run (every
   rule, unless a --rules filter left it out) and it matched no finding,
   kept or suppressed.  One definition for every
   entry family so the three staleness reports cannot drift. *)
let stale t ~in_scope ~findings =
  List.filter
    (fun (rule, path, _line) ->
      in_scope rule
      && not
           (List.exists
              (fun f ->
                (String.equal rule "*" || String.equal rule f.Finding.rule)
                && String.equal path f.Finding.file)
              findings))
    (entries_located t)
