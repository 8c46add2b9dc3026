"""scipy's CSR as the reference for specnorm.PaddedRows: the program
runs without scipy, and its sums must be scipy's bit for bit."""

from scipy import sparse

from qsphere.specnorm import PaddedRows


def as_csr(mat: PaddedRows) -> sparse.csr_matrix:
    """The CSR matrix of mat's stored (nonzero) entries."""
    i, j, v = mat.entries()
    return sparse.csr_matrix((v, (i, j)), shape=mat.shape)


def from_csr(csr) -> PaddedRows:
    coo = csr.tocoo()
    return PaddedRows.from_entries(coo.row, coo.col, coo.data, coo.shape)
