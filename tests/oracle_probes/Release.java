import java.util.concurrent.locks.Lock;
import java.util.concurrent.locks.ReentrantLock;
import javax.annotation.concurrent.ThreadSafe;

@ThreadSafe
class Release {
  private int items = 0;
  private final Lock lock = new ReentrantLock();

  public void take() {
    lock.lock();
    items = items - 1;
    lock.unlock();
  }

  public void release() {
    lock.unlock();
  }
}
