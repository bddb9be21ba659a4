module accrual/perfbench

go 1.22

require accrual v0.0.0

replace accrual => ../
