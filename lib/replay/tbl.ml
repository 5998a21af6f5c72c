module Int = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* the multiply spreads low bits upward and the fold brings the high
     ones back into the bucket index *)
  let hash x =
    let h = x * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)
end)

module Str = Hashtbl.Make (String)
