import java.util.concurrent.locks.Lock;
import java.util.concurrent.locks.ReentrantLock;
import javax.annotation.concurrent.ThreadSafe;

// hand over hand: the normal path takes next before the finally releases
// lock, and writes count under next after the try. The early return leaves
// through the finally and never reaches that code, so no path unlocks a
// lock it does not hold.
@ThreadSafe
class ReturnInTry {
  private int value = 0;
  private int count = 0;
  private final Lock lock = new ReentrantLock();
  private final Lock next = new ReentrantLock();

  public int take() {
    lock.lock();
    try {
      if (value == 0) {
        return 0;
      }
      next.lock();
    } finally {
      lock.unlock();
    }
    count = 1;
    next.unlock();
    return 1;
  }
}
