"""The paper's answers at paper scale, one `squarelab` command line a row.

Rows run in order in one directory, after `INPUTS` are written there, so a
row reads what earlier rows wrote.  Every row exits 0 and gives what it
names: `stdout` text; the SHA-256 (`sha256`) or the number of data lines,
those not starting with '#' (`lines`), of stdout or of `file`; the data
lines of the file `same_data_as`; the `centers` of a find's stderr summary;
or a verify `report` with every check ok, whose checks (sorted-key JSON)
hash to `checks_sha256` if it is given.  A `pipe` row reads its producer
through /dev/stdin, both as processes, so the read of a stream that cannot
seek stays covered; `budget` is its reader's SQUARELAB_BUDGET.  The other
rows run in process.
"""

from __future__ import annotations

from typing import NamedTuple


class Row(NamedTuple):
    name: str
    argv: str  # after `squarelab`
    stdout: str | None = None
    file: str = "-"  # stdout
    sha256: str | None = None
    lines: int | None = None
    same_data_as: str | None = None
    centers: int | None = None
    report: bool = False
    checks_sha256: str | None = None
    pipe: str | None = None
    budget: str | None = None


# {i**3 + 7i : i < 300} and its square: a span of ~2.7e7 and no RNG
WIDE = [i**3 + 7 * i for i in range(300)]
INPUTS = {"wide1d.txt": "".join(f"{x}\n" for x in WIDE),
          "wide2d.txt": "".join(f"{x} {y}\n" for x in WIDE for y in WIDE)}

ROWS = [
    # D_8 and the |D_k| scan to k = 16 pin the digit-set occupancy vector
    Row("dk8", "gen dk --k 8",
        sha256="1ad6cac23b0806eecd7fa17234ef600074ea7039386737a812f4a68936aee718"),
    Row("dk_sizes", "scan --family dk_size --kmin 2 --kmax 16",
        sha256="e22b832050f241931a1b4ccabeb2cffac6af6091b5a863f42f221e536e5d2676"),
    # every verify target at the paper's sizes; D_8's checks pin its block counts
    Row("verify_dk8", "verify dk --k 8", report=True,
        checks_sha256="e7f2b81c8d6520a0961137960d7da15da8f21fb2c05f101732aafbdee015f232"),
    Row("verify_an4", "verify an --p 4", report=True),
    Row("verify_b3", "verify boundary --k 3", report=True),
    Row("verify_b5", "verify boundary --k 5", report=True),  # at the default budget
    # the same, replayed on the example's own raster: 14,406,912 points
    Row("verify_b6", "verify boundary --k 6", report=True,
        checks_sha256="6e47a449a3e174648933c7711738bfacbf546554a504754fc271444d0fe82832"),
    Row("verify_c3", "verify countable --alpha 1 --K 3", report=True),
    Row("verify_c4", "verify countable --alpha 1 --K 4", report=True),  # the same
    Row("a4", "gen an --p 4 --out a4.txt", file="a4.txt",
        sha256="902a9aff617d9ab900083e7020208e5d520f22c90b96bb0cb323ed5224e14936"),
    # A_4 and the s = 2 Cantor A side share their multipliers: both callers of
    # the sumset kernel mark the same 916,716 values
    Row("cantor_a4", "gen cantor --s 2 --p 4 --which a", same_data_as="a4.txt"),
    # numpy reads a pipe from the stream and a regular file by its path
    # float mode writes each value's repr, a block of values at a time
    Row("cantor_float", "gen cantor --s 3/2 --p 3",
        sha256="5eaf3e84460d30757136c23a37607d3dfcaeb19321b24cbe6bfe94d2695d203b"),
    Row("cover_a4_pipe", "cover --in /dev/stdin --len 200", "4632\n", pipe="gen an --p 4"),
    Row("cover_a4", "cover --in a4.txt --len 200", "4632\n"),
    # the examples fed back into the finders under the default budget; the
    # vertex examples are products, counted by the common-radius join
    Row("gen_v3", "gen vertex-example --k 3 --out-b v3_b.txt --out-s v3_s.txt"),
    Row("find_v3", "find vertices --in v3_b.txt --count", "105542\n"),
    Row("gen_v4", "gen vertex-example --k 4 --out-b v4_b.txt --out-s v4_s.txt"),
    Row("find_v4", "find vertices --in v4_b.txt --count", "1109548\n"),  # 476,100 lines
    Row("gen_b3", "gen boundary-example --k 3 --out-b b3_b.txt --out-s b3_s.txt"),
    Row("find_b3", "find boundaries --in b3_b.txt --rmax 20 --count", "969226\n"),
    # the read-out of the (x, y, r) raster
    Row("rows_b3", "find boundaries --in b3_b.txt --rmax 20",
        sha256="2e703873f12e0ccb19f80d8b3094a1f7b440b9c3de5dfac31a9444ed34ce7252"),
    Row("gen_b4", "gen boundary-example --k 4 --out-b b4_b.txt --out-s b4_s.txt"),
    # the grid's run tables
    Row("find_b4", "find boundaries --in b4_b.txt --rmax 20 --count", "10165841\n"),
    # every radius: 75,497,344 cells read, 3,774,867 sweep work
    Row("find_b4_all", "find boundaries --in b4_b.txt --rmax 1000 --count", "56703334\n"),
    Row("gen_c3", "gen countable --alpha 1 --K 3 --out-dir countable"),
    # block 1's 18,675 points take the same-row pair scan
    Row("find_c3_block1", "find vertices --in countable/block1_b.txt --count", "32159\n",
        centers=32159),
    # block 1's 75,123 points: 16,131,660 same-row pairs within reach
    Row("gen_c4", "gen countable --alpha 1 --K 4 --out-dir countable4"),
    Row("find_c4_block1", "find vertices --in countable4/block1_b.txt --count", "130175\n",
        centers=130175),
    # D_3..D_7 are counted by the offset join under the default budget; D_7's
    # 12,040,623 work is the largest, and D_8's 37,610,622 needs a scale of 1.88
    Row("d3", "find centers1d --in /dev/stdin", lines=105542, pipe="gen dk --k 3"),
    Row("d4", "find centers1d --in /dev/stdin --count", "1109548\n", pipe="gen dk --k 4",
        centers=1109548),
    Row("d5", "find centers1d --in /dev/stdin --count", "6744602\n", pipe="gen dk --k 5"),
    Row("d6", "find centers1d --in /dev/stdin --count", "29234026\n", pipe="gen dk --k 6"),
    Row("d7", "find centers1d --in /dev/stdin --count", "100778792\n", pipe="gen dk --k 7"),
    Row("d8", "find centers1d --in /dev/stdin --count", "293955904\n", pipe="gen dk --k 8",
        budget="2"),
    # the wide set and its square take the sparse kernel and count the same centers
    Row("wide1d", "find centers1d --in wide1d.txt --count", "45201\n"),
    Row("wide2d", "find vertices --in wide2d.txt --count", "45201\n"),
    Row("gen_b5", "gen boundary-example --k 5 --out-b b5_b.txt --out-s b5_s.txt",
        file="b5_b.txt", lines=3432351),  # at the default budget
    # 68,823,160 cells read, 3,441,158 sweep work; every radius, 1.1 G cells, is refused
    Row("find_b5", "find boundaries --in b5_b.txt --rmax 20 --count", "58757200\n"),
]
